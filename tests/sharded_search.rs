//! Property-style integration tests for the sharded search tier
//! (`ged_graph::ShardedStore` searched through `StoreRef::Sharded`):
//!
//! * pivot-free `TopK` / `Range` / `RangeExact` over a sharded store are
//!   bit-identical to the flat plans over the same graphs, across bucket
//!   widths (1, 4, unbounded) and thread counts;
//! * with pivots armed, `RangeExact` still equals the flat exact scan
//!   (exact answers are plan-independent), and the approximate plans
//!   equal the sharded brute-force oracle applying the engine's own
//!   per-shard pivot bounds;
//! * the shard tier visibly prunes (`pruned_shard > 0`) on
//!   size-heterogeneous stores while the stats accounting still closes;
//! * interleaved insert / remove keeps sharded answers equal to a flat
//!   mirror maintained alongside;
//! * a snapshot save → load round-trip preserves ids, revisions (the
//!   follow-up pivot sync is a no-op), and every answer bit;
//! * pivot arming is lazy and per shard: only shards the signature
//!   shard tier leaves standing compute query-to-pivot distances, and a
//!   stored query's own shard reuses its table row for free.
//!
//! The pivot tier's own oracle suite, also over synced sharded copies,
//! is `tests/pivot_search.rs`.

use ged_testkit::{
    aids_store, assert_same_neighbors as assert_same, brute_range, brute_range_exact, brute_top_k,
    engine_builder, expected_pivot_distances, external_query, linux_store, rng, sharded_copy,
};
use ot_ged::prelude::*;
use std::collections::BTreeMap;

/// GEDGW-only engine with `threads` workers and `p` pivots.
fn engine(threads: usize, p: usize) -> GedEngine {
    engine_builder(&[MethodKind::Gedgw])
        .threads(threads)
        .pivots(p)
        .build()
        .expect("valid configuration")
}

/// Translates a flat-store neighbor list through the flat→sharded id map
/// (both mints are insertion-ordered, so relative id order — and hence
/// the `(ged, id)` sort — is preserved).
fn translate(neighbors: &[Neighbor], map: &BTreeMap<GraphId, GraphId>) -> Vec<Neighbor> {
    neighbors
        .iter()
        .map(|n| Neighbor {
            id: map[&n.id],
            ged: n.ged,
        })
        .collect()
}

fn translate_exact(
    matches: &[ExactNeighbor],
    map: &BTreeMap<GraphId, GraphId>,
) -> Vec<ExactNeighbor> {
    matches
        .iter()
        .map(|m| ExactNeighbor {
            id: map[&m.id],
            ged: m.ged,
        })
        .collect()
}

fn assert_same_exact(got: &[ExactNeighbor], want: &[ExactNeighbor], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: result size");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.id, w.id, "{ctx}: id order");
        assert_eq!(g.ged, w.ged, "{ctx}: exact value at {}", g.id);
    }
}

#[test]
fn pivot_free_sharded_plans_equal_flat_plans() {
    for (store, tag) in [
        (aids_store(30, 7101), "AIDS"),
        (linux_store(24, 7102), "LINUX"),
    ] {
        let query = external_query(7103);
        for width in [1, 4, usize::MAX] {
            let (sharded, map) = sharded_copy(&store, width);
            for threads in [1, 4] {
                let e = engine(threads, 0);
                let ctx = format!("{tag}/width={width}/threads={threads}");

                let flat = e.top_k(&query, &store, 7).expect("flat top-k");
                let shrd = e.top_k(&query, &sharded, 7).expect("sharded top-k");
                assert_same(
                    &shrd.neighbors,
                    &translate(&flat.neighbors, &map),
                    &format!("{ctx}/top-k"),
                );
                assert_eq!(
                    shrd.stats.pruned() + shrd.stats.verified,
                    shrd.stats.candidates,
                    "{ctx}/top-k: accounting closes"
                );

                let tau = flat.neighbors.last().expect("k results").ged;
                let flat_r = e.range(&query, &store, tau).expect("flat range");
                let shrd_r = e.range(&query, &sharded, tau).expect("sharded range");
                assert_same(
                    &shrd_r.neighbors,
                    &translate(&flat_r.neighbors, &map),
                    &format!("{ctx}/range"),
                );

                let flat_x = e.range_exact(&query, &store, 8.0).expect("flat exact");
                let shrd_x = e.range_exact(&query, &sharded, 8.0).expect("sharded exact");
                assert_same_exact(
                    &shrd_x.matches,
                    &translate_exact(&flat_x.matches, &map),
                    &format!("{ctx}/range-exact"),
                );
                assert_eq!(
                    shrd_x.stats.total(),
                    sharded.len(),
                    "{ctx}/range-exact: every candidate lands in one tier"
                );
            }
        }
    }
}

#[test]
fn sharded_range_exact_with_pivots_equals_flat_exact_scan() {
    let store = aids_store(24, 7201);
    let query = external_query(7202);
    let (mut sharded, map) = sharded_copy(&store, 4);
    let e = engine(1, 3);
    e.sync_sharded_pivots(&mut sharded);
    assert!(sharded.pivots_ready(3), "every shard synced at the target");

    let flat = e.range_exact(&query, &store, 7.0).expect("flat exact");
    let shrd = e.range_exact(&query, &sharded, 7.0).expect("sharded exact");
    assert_same_exact(
        &shrd.matches,
        &translate_exact(&flat.matches, &map),
        "pivoted exact scan",
    );
    assert_eq!(shrd.stats.total(), sharded.len(), "accounting closes");

    // And against the brute-force sharded oracle directly.
    let brute = brute_range_exact(&sharded, &query, 7);
    assert_same_exact(&shrd.matches, &brute, "vs sharded oracle");
}

#[test]
fn pivoted_sharded_plans_equal_the_sharded_oracle() {
    let store = aids_store(26, 7301);
    let query = external_query(7302);
    let (mut sharded, _) = sharded_copy(&store, 4);
    let solver = GedgwSolver;
    for threads in [1, 3] {
        let e = engine(threads, 3);
        e.sync_sharded_pivots(&mut sharded);
        let bounds = e
            .sharded_pivot_bounds(&query, &sharded)
            .expect("pivots are synced");
        assert_eq!(bounds.len(), sharded.len(), "one bound per graph");

        let topk = e.top_k(&query, &sharded, 6).expect("top-k");
        let want = brute_top_k(&sharded, &query, &solver, 6, Some(&bounds));
        assert_same(&topk.neighbors, &want, &format!("threads={threads}/top-k"));

        let tau = want.last().expect("6 results").ged;
        let range = e.range(&query, &sharded, tau).expect("range");
        let want_r = brute_range(&sharded, &query, &solver, tau, Some(&bounds));
        assert_same(
            &range.neighbors,
            &want_r,
            &format!("threads={threads}/range"),
        );
    }
}

#[test]
fn shard_tier_prunes_on_size_heterogeneous_stores() {
    // IMDB-like stores mix small ego-nets with much larger ones, so a
    // small query is provably far from the large-graph shards on node
    // count alone — whole shards drop at the aggregate tier.
    let store = GraphDataset::imdb_like(40, 12, &mut rng(7401));
    let (sharded, _) = sharded_copy(&store, 4);
    assert!(
        sharded.shard_count() > 2,
        "heterogeneous sizes spread shards"
    );
    let query = store
        .graphs()
        .min_by_key(|g| g.num_nodes())
        .expect("nonempty")
        .clone();
    let e = engine(1, 0);

    let topk = e.top_k(&query, &sharded, 3).expect("top-k");
    assert!(
        topk.stats.pruned_shard > 0,
        "top-k skips whole shards: {}",
        topk.stats
    );
    assert_eq!(
        topk.stats.pruned() + topk.stats.verified,
        topk.stats.candidates,
        "top-k accounting closes"
    );

    let range = e.range(&query, &sharded, 2.0).expect("range");
    assert!(
        range.stats.pruned_shard > 0,
        "range skips whole shards: {}",
        range.stats
    );

    let exact = e.range_exact(&query, &sharded, 2.0).expect("exact");
    assert!(
        exact.stats.pruned_shard > 0,
        "exact range skips whole shards: {}",
        exact.stats
    );
    assert_eq!(
        exact.stats.total(),
        sharded.len(),
        "exact accounting closes"
    );
}

#[test]
fn interleaved_mutations_keep_sharded_equal_to_flat_mirror() {
    let source = aids_store(18, 7501);
    let spares = aids_store(6, 7502);
    let query = external_query(7503);
    let e = engine(1, 0);

    let mut flat = GraphStore::new();
    let mut sharded = ShardedStore::new(4);
    let mut map: BTreeMap<GraphId, GraphId> = BTreeMap::new();
    let mut flat_ids = Vec::new();
    for (_, g) in source.iter() {
        let fid = flat.insert(g.clone());
        map.insert(fid, sharded.insert(g.clone()));
        flat_ids.push(fid);
    }

    let check = |flat: &GraphStore,
                 sharded: &ShardedStore,
                 map: &BTreeMap<GraphId, GraphId>,
                 step: &str| {
        let f = e.top_k(&query, flat, 5).expect("flat top-k");
        let s = e.top_k(&query, sharded, 5).expect("sharded top-k");
        assert_same(&s.neighbors, &translate(&f.neighbors, map), step);
        let fx = e.range_exact(&query, flat, 6.0).expect("flat exact");
        let sx = e.range_exact(&query, sharded, 6.0).expect("sharded exact");
        assert_same_exact(&sx.matches, &translate_exact(&fx.matches, map), step);
    };
    check(&flat, &sharded, &map, "initial");

    // Remove every third graph, inserting a spare after each removal.
    let mut spare_iter = spares.iter();
    for victim in flat_ids.iter().step_by(3) {
        assert!(
            flat.remove(*victim).is_some(),
            "flat mirror holds the victim"
        );
        assert!(
            sharded.remove(map[victim]).is_some(),
            "sharded store holds the twin"
        );
        map.remove(victim);
        if let Some((_, g)) = spare_iter.next() {
            let fid = flat.insert(g.clone());
            map.insert(fid, sharded.insert(g.clone()));
        }
    }
    assert_eq!(flat.len(), sharded.len());
    check(&flat, &sharded, &map, "after interleaved insert/remove");
}

#[test]
fn snapshot_roundtrip_preserves_answers_and_pivot_sync() {
    let store = aids_store(20, 7601);
    let query = external_query(7602);
    let (mut sharded, _) = sharded_copy(&store, 4);
    let e = engine(1, 3);
    e.sync_sharded_pivots(&mut sharded);

    let dir = std::env::temp_dir().join("ot_ged_sharded_search_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("snapshot.json");
    sharded.save(&path).expect("save");
    let mut loaded = ShardedStore::load(&path).expect("load");
    std::fs::remove_file(&path).ok();

    assert_eq!(loaded.revision(), sharded.revision(), "revision carried");
    assert_eq!(loaded.ids(), sharded.ids(), "ids persisted verbatim");
    assert!(loaded.pivots_ready(3), "pivot blocks restored in-sync");

    // The restored revisions make the follow-up sync an O(1) no-op:
    // the snapshot is byte-stable across it.
    let before = loaded.to_json();
    e.sync_sharded_pivots(&mut loaded);
    assert_eq!(before, loaded.to_json(), "sync after load is a no-op");

    let want = e.top_k(&query, &sharded, 6).expect("pre-save");
    let got = e.top_k(&query, &loaded, 6).expect("post-load");
    assert_same(&got.neighbors, &want.neighbors, "top-k across round-trip");
    let want_x = e.range_exact(&query, &sharded, 6.0).expect("pre-save");
    let got_x = e.range_exact(&query, &loaded, 6.0).expect("post-load");
    assert_same_exact(&got_x.matches, &want_x.matches, "exact across round-trip");

    // Fresh inserts never alias restored ids.
    let extra = external_query(7604);
    let new_id = loaded.insert(extra);
    assert!(
        !sharded.ids().contains(&new_id),
        "restored seqs are reserved: {new_id:?}"
    );
}

#[test]
fn stored_queries_arm_their_own_shard_for_free() {
    let store = aids_store(40, 7701);
    let (mut sharded, map) = sharded_copy(&store, 4);
    assert_eq!(sharded.shard_count(), 2, "4–7 and 8–10 nodes");
    let e = engine(1, 3);
    e.sync_sharded_pivots(&mut sharded);
    let mut far_pruned = 0;
    for (flat_id, query) in store.iter().step_by(3) {
        let id = map[&flat_id];
        let own = sharded
            .shards()
            .find(|s| s.store().contains(id))
            .map(Shard::bucket);
        let want = expected_pivot_distances(&sharded, query, 2, own);
        far_pruned += usize::from(want == 0);
        let ctx = format!("stored {id}");

        let inline = e.range_exact(query, &sharded, 2.0).unwrap();
        assert_eq!(inline.stats.pivot_distances, want, "{ctx}: exact");
        let brute = brute_range_exact(&sharded, query, 2);
        assert_same_exact(&inline.matches, &brute, &ctx);

        let by_id = e.range(sharded.get(id).unwrap(), &sharded, 2.0).unwrap();
        let range = e.range(query, &sharded, 2.0).unwrap();
        assert_eq!(by_id, range, "{ctx}: by-id is the same plan");
        assert_eq!(range.stats.pivot_distances, want, "{ctx}: range");
    }
    assert!(far_pruned > 0, "some stored query never arms the far shard");
}

#[test]
fn range_exact_below_the_far_shard_bound_arms_only_the_near_shard() {
    let store = aids_store(40, 7801);
    let (mut sharded, _) = sharded_copy(&store, 4);
    assert_eq!(sharded.shard_count(), 2, "4–7 and 8–10 nodes");
    let e = engine(1, 3);
    e.sync_sharded_pivots(&mut sharded);
    let (query, near, tau) = (7802..7900)
        .find_map(|seed| {
            let query = external_query(seed);
            let qsig = GraphSignature::of(&query);
            let mut lbs: Vec<(usize, &Shard)> = sharded
                .shards()
                .map(|s| (s.signature_lower_bound(&qsig), s))
                .collect();
            lbs.sort_by_key(|&(lb, s)| (lb, s.bucket()));
            let ((near_lb, near), (far_lb, _)) = (lbs[0], lbs[1]);
            (near_lb < far_lb).then_some((query, near, near_lb))
        })
        .expect("some foreign query is nearer to one shard");
    assert!(
        sharded.graphs().all(|g| *g != query),
        "the query is foreign"
    );

    let got = e.range_exact(&query, &sharded, tau as f64).unwrap();
    assert_eq!(
        got.stats.pivot_distances,
        near.pivot_query_cost(),
        "only the near shard is armed: {}",
        got.stats
    );
    assert!(got.stats.pruned_shard > 0, "the far shard is skipped");
    assert_eq!(got.stats.total(), sharded.len(), "accounting closes");
    let brute = brute_range_exact(&sharded, &query, tau);
    assert_same_exact(&got.matches, &brute, "vs sharded oracle");
}
