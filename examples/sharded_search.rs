//! The sharded store tier: one `ShardedStore` partitioned by graph-size
//! bucket, searched with the `*_sharded` engine plans, persisted to disk
//! and restored — answers stay bit-identical to the flat plans
//! throughout.
//!
//! Shards group graphs of similar size, so a single admissible bound per
//! shard (size gap + label-multiset gap of the shard aggregate) can
//! discard whole partitions before any per-graph work:
//!
//! ```text
//! shard tier → pivot tier → signature tier → branch tier → verify
//! ```
//!
//! (The branch tier bounds GEDGW's objective, not only GED, so it prunes
//! top-k and range candidates only for solvers that declare
//! `GedSolver::respects_branch_bound`, such as GEDGW.)
//!
//! Run with: `cargo run --release --example sharded_search`

use ot_ged::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn engine(pivots: usize) -> GedEngine {
    let mut registry = SolverRegistry::new();
    registry.register(MethodKind::Gedgw, Box::new(GedgwSolver));
    GedEngine::builder(registry)
        .threads(2)
        .pivots(pivots)
        .build()
        .expect("GEDGW is registered")
}

fn main() {
    // IMDB-like data mixes small ego-nets with much larger ones — the
    // size-bucketed shards spread wide, which is exactly when the shard
    // tier pays off.
    let mut rng = SmallRng::seed_from_u64(4071);
    let flat = GraphDataset::imdb_like(40, 12, &mut rng).into_store();

    // Mirror the flat store into a sharded one (bucket width 4: graphs
    // with 0–3 nodes share shard 0, 4–7 shard 1, ...), remembering the
    // id twin of every graph.
    let mut sharded = ShardedStore::new(4);
    let mut twin = std::collections::BTreeMap::new();
    for (flat_id, graph) in flat.iter() {
        twin.insert(flat_id, sharded.insert(graph.clone()));
    }
    println!(
        "store: {} graphs in {} shards (bucket width {})",
        sharded.len(),
        sharded.shard_count(),
        sharded.bucket_width()
    );

    let query = flat
        .graphs()
        .min_by_key(|g| g.num_nodes())
        .expect("non-empty")
        .clone();
    println!(
        "query: the smallest stored graph ({} nodes)\n",
        query.num_nodes()
    );

    let e = engine(0);

    // Top-k: same neighbors (modulo the id mint), whole shards skipped.
    let flat_k = e.top_k(&query, &flat, 5).expect("valid");
    let shrd_k = e.top_k_sharded(&query, &sharded, 5).expect("valid");
    assert_eq!(flat_k.neighbors.len(), shrd_k.neighbors.len());
    for (f, s) in flat_k.neighbors.iter().zip(&shrd_k.neighbors) {
        assert_eq!(twin[&f.id], s.id, "same neighbor under the id mapping");
        assert!((f.ged - s.ged).abs() == 0.0, "bit-identical estimate");
    }
    println!("TopK(5)   flat: {}", flat_k.stats);
    println!("TopK(5) shard: {}", shrd_k.stats);
    assert!(shrd_k.stats.pruned_shard > 0, "whole shards must drop");
    // Shard-pruned graphs never reach the per-candidate tiers, so the
    // per-graph filter does strictly less work than the flat plan's.
    let flat_visits = flat_k.stats.candidates;
    let sharded_visits = shrd_k.stats.candidates - shrd_k.stats.pruned_shard;
    assert!(
        sharded_visits < flat_visits,
        "shard tier must cut per-graph candidate visits"
    );
    println!(
        "per-graph candidate visits: {flat_visits} → {sharded_visits} \
         (identical answers)\n"
    );

    // Exact range search under the same contract.
    let flat_x = e.range_exact(&query, &flat, 2.0).expect("valid");
    let shrd_x = e.range_exact_sharded(&query, &sharded, 2.0).expect("valid");
    assert_eq!(flat_x.matches.len(), shrd_x.matches.len());
    for (f, s) in flat_x.matches.iter().zip(&shrd_x.matches) {
        assert_eq!(twin[&f.id], s.id);
        assert_eq!(f.ged, s.ged, "exact values agree");
    }
    println!("RangeExact(2)   flat: {}", flat_x.stats);
    println!("RangeExact(2) shard: {}", shrd_x.stats);
    assert!(shrd_x.stats.pruned_shard > 0);
    assert_eq!(shrd_x.stats.total(), sharded.len(), "accounting closes");

    // Persistence: save, reload, re-arm pivots, same answers.
    let e = engine(3);
    e.sync_sharded_pivots(&mut sharded);
    let dir = std::env::temp_dir().join("ot_ged_sharded_search_example");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("store.snapshot.json");
    sharded.save(&path).expect("snapshot written");
    let mut restored = ShardedStore::load(&path).expect("snapshot read");
    std::fs::remove_file(&path).ok();
    e.sync_sharded_pivots(&mut restored); // O(1): revisions carried over
    assert!(restored.pivots_ready(3), "pivot tables restored in-sync");

    let before = e.top_k_sharded(&query, &sharded, 5).expect("valid");
    let after = e.top_k_sharded(&query, &restored, 5).expect("valid");
    assert_eq!(
        before.neighbors, after.neighbors,
        "answers survive the disk"
    );
    println!(
        "\nsnapshot round-trip: {} graphs, revision {}, answers bit-identical ✓",
        restored.len(),
        restored.revision()
    );
}
