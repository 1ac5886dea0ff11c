//! Property-style integration tests for the filter–verify store search:
//! over ≥ 50-graph stores and across two solver methods, `GedQuery::TopK`
//! and `GedQuery::Range` must return *exactly* the brute-force answer
//! (every stored graph evaluated, same bound refinement) while invoking
//! the solver on strictly fewer candidates — observable through
//! `SearchStats`. `GedQuery::RangeExact` must additionally equal a
//! brute-force τ-bounded **exact** scan, with every pipeline tier firing
//! and `ExactSearchStats` accounting closing to the store size.

use ged_testkit::{
    aids_store, assert_same_neighbors as assert_same, engine_builder, external_query,
    property_stores as stores, sharded_copy, solver_for,
};
use ot_ged::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// An engine over the two training-free methods the properties sweep.
fn engine() -> GedEngine {
    ged_testkit::gedgw_classic_engine()
}

/// Brute force over the whole store, exactly as the engine computes it.
fn brute_force(store: &GraphStore, query: &Graph, method: MethodKind) -> Vec<Neighbor> {
    ged_testkit::brute_force_refined(store, query, solver_for(method).as_ref(), None)
}

#[test]
fn top_k_equals_brute_force_across_methods_and_stores() {
    let engine = engine();
    for ds in stores() {
        assert!(ds.len() >= 50);
        // Query with a member of the collection — the similarity-search
        // scenario: close neighbors exist, so the k-th-best threshold
        // tightens and the bounds can discard the far candidates.
        let query = ds.graphs().next().unwrap().clone();
        for method in [MethodKind::Gedgw, MethodKind::Classic] {
            let brute = brute_force(&ds, &query, method);
            let mut pruned_somewhere = false;
            for k in [1usize, 5, 13, ds.len()] {
                let ctx = format!("{}/{}/k={}", ds.kind.name(), method, k);
                let (q, store, opts) = (&query, (&ds).into(), QueryOpts::with_method(method));
                let top_k = GedQuery::TopK { query: q, store, k };
                let result = engine.query_with(top_k, opts).expect("valid query");
                let result = result.into_top_k().unwrap();
                assert_same(&result.neighbors, &brute[..k.min(brute.len())], &ctx);
                assert_eq!(result.stats.candidates, ds.len(), "{ctx}");
                assert_eq!(
                    result.stats.pruned() + result.stats.verified,
                    result.stats.candidates,
                    "{ctx}: accounting must close"
                );
                if k < ds.len() / 2 {
                    assert!(
                        result.stats.verified < ds.len(),
                        "{ctx}: must invoke the solver on strictly fewer pairs: {:?}",
                        result.stats
                    );
                }
                pruned_somewhere |= result.stats.pruned() > 0;
            }
            assert!(
                pruned_somewhere,
                "{}/{method}: pruning never fired",
                ds.kind.name()
            );
        }
    }
}

#[test]
fn range_equals_brute_force_across_methods_and_stores() {
    let engine = engine();
    for ds in stores() {
        let query = ds.graphs().next().unwrap().clone();
        for method in [MethodKind::Gedgw, MethodKind::Classic] {
            let brute = brute_force(&ds, &query, method);
            // Thresholds spanning tight to loose, data-derived so every
            // regime is non-trivial.
            let taus = [
                brute[2].ged,
                brute[brute.len() / 4].ged,
                brute[brute.len() / 2].ged,
            ];
            let mut pruned_somewhere = false;
            for tau in taus {
                let ctx = format!("{}/{}/tau={:.3}", ds.kind.name(), method, tau);
                let (q, store, opts) = (&query, (&ds).into(), QueryOpts::with_method(method));
                let range = GedQuery::Range {
                    query: q,
                    store,
                    tau,
                };
                let result = engine.query_with(range, opts).expect("valid query");
                let result = result.into_range().unwrap();
                let want: Vec<Neighbor> = brute.iter().copied().filter(|n| n.ged <= tau).collect();
                assert_same(&result.neighbors, &want, &ctx);
                assert!(!result.neighbors.is_empty(), "{ctx}: τ chosen non-trivial");
                assert_eq!(
                    result.stats.pruned() + result.stats.verified,
                    result.stats.candidates,
                    "{ctx}: accounting must close"
                );
                pruned_somewhere |= result.stats.pruned() > 0;
                if result.stats.pruned() > 0 {
                    assert!(
                        result.stats.verified < ds.len(),
                        "{ctx}: pruning must save solver calls: {:?}",
                        result.stats
                    );
                }
            }
            assert!(
                pruned_somewhere,
                "{}/{method}: pruning never fired",
                ds.kind.name()
            );
        }
    }
}

#[test]
fn search_stays_consistent_across_incremental_updates() {
    let engine = engine();
    let mut rng = SmallRng::seed_from_u64(44);
    let mut ds = GraphDataset::aids_like(50, &mut rng);
    let query = ged_testkit::external_query(440);

    // Remove the current best, insert a fresh graph, re-query: the store
    // is live, and filter–verify stays exactly brute-force-equal.
    for round in 0..3 {
        let result = engine.top_k(&query, &ds, 5).expect("valid query");
        let brute = brute_force(&ds, &query, MethodKind::Gedgw);
        assert_same(&result.neighbors, &brute[..5], &format!("round {round}"));

        let best = result.neighbors[0].id;
        ds.remove(best);
        let fresh = GraphDataset::aids_like(1, &mut rng)
            .graphs()
            .next()
            .unwrap()
            .clone();
        let new_id = ds.insert(fresh);
        assert!(ds.contains(new_id));
        let rerun = engine.top_k(&query, &ds, ds.len()).expect("valid query");
        assert!(rerun.neighbors.iter().all(|n| n.id != best));
        assert!(rerun.neighbors.iter().any(|n| n.id == new_id));
    }
}

use ged_testkit::brute_range_exact as brute_force_exact;

#[test]
fn range_exact_equals_brute_force_with_every_tier_firing() {
    let engine = engine();
    for ds in stores() {
        assert!(ds.len() >= 50);
        // Query with a member: a GED-0 self-match guarantees the
        // verify tier has something to verify.
        let query = ds.graphs().next().unwrap().clone();
        let mut fired = ExactSearchStats::default();
        for tau in [1usize, 3, 5] {
            let ctx = format!("{}/tau={}", ds.kind.name(), tau);
            let result = engine
                .query(GedQuery::RangeExact {
                    query: &query,
                    store: (&ds).into(),
                    tau: tau as f64,
                })
                .expect("valid query")
                .into_range_exact()
                .expect("RangeExact yields RangeExact");

            // Exactly the brute-force τ-bounded scan: same ids, same
            // exact distances, same (ascending id) order.
            let want = brute_force_exact(&ds, &query, tau);
            assert_eq!(result.matches, want, "{ctx}: brute-force equality");
            assert!(!result.matches.is_empty(), "{ctx}: member query matches");
            assert!(
                result.budget_exhausted.is_empty(),
                "{ctx}: unlimited budget never exhausts"
            );
            assert_eq!(
                result.stats.total(),
                ds.len(),
                "{ctx}: accounting must close to the store size: {:?}",
                result.stats
            );
            fired.filtered += result.stats.filtered;
            fired.pruned_branch += result.stats.pruned_branch;
            fired.verified += result.stats.verified;
        }
        // Every tier must fire on every store across the τ sweep.
        assert!(
            fired.filtered > 0,
            "{}: filter tier never fired",
            ds.kind.name()
        );
        // On unlabeled graphs the root LSAP is the sorted degree matching
        // the degree filter already applied, so branch fires only with labels.
        assert!(
            fired.pruned_branch > 0 || ds.kind.num_labels() <= 1,
            "{}: branch tier never fired",
            ds.kind.name()
        );
        assert!(
            fired.verified > 0,
            "{}: verify tier never fired",
            ds.kind.name()
        );
    }
}

#[test]
fn range_exact_is_thread_count_invariant() {
    let ds = ged_testkit::aids_store(50, 46);
    let query = ds.graphs().next().unwrap().clone();
    let sequential = ged_testkit::gedgw_engine(1)
        .range_exact(&query, &ds, 4.0)
        .unwrap();
    let parallel = ged_testkit::gedgw_engine(4)
        .range_exact(&query, &ds, 4.0)
        .unwrap();
    assert_eq!(sequential, parallel, "exact answers are thread-independent");
    assert_eq!(sequential.matches, brute_force_exact(&ds, &query, 4));
}

#[test]
fn range_exact_budget_degrades_per_candidate_not_per_query() {
    let ds = ged_testkit::aids_store(50, 47);
    let query = ds.graphs().next().unwrap().clone();
    let build = |budget: usize| {
        ged_testkit::engine_builder(&[MethodKind::Gedgw])
            .threads(2)
            .verify_budget(budget)
            .build()
            .expect("valid configuration")
    };
    let truth = brute_force_exact(&ds, &query, 4);
    for budget in [1usize, 16, usize::MAX] {
        let result = build(budget).range_exact(&query, &ds, 4.0).unwrap();
        assert_eq!(
            result.stats.total(),
            ds.len(),
            "budget={budget}: accounting closes"
        );
        assert_eq!(
            result.stats.budget_exceeded,
            result.budget_exhausted.len(),
            "budget={budget}: stats mirror the undecided list"
        );
        // Everything the budgeted query *did* decide agrees with truth;
        // anything missing is exactly the undecided set.
        for m in &result.matches {
            assert!(
                truth.contains(m),
                "budget={budget}: decided matches are true"
            );
        }
        for t in &truth {
            assert!(
                result.matches.contains(t) || result.budget_exhausted.iter().any(|u| u.id == t.id),
                "budget={budget}: true match {t:?} lost without being reported undecided"
            );
        }
        // Membership evidence that survived the budget must be true: a
        // `known_match_ub` candidate is a real match and the bound holds.
        for u in &result.budget_exhausted {
            if let Some(ub) = u.known_match_ub {
                let t = truth.iter().find(|t| t.id == u.id).unwrap_or_else(|| {
                    panic!("budget={budget}: proven member {u:?} must truly match")
                });
                assert!(t.ged <= ub, "budget={budget}: bound must hold");
            }
        }
    }
    // The unlimited run is the brute-force answer outright.
    let unlimited = build(usize::MAX).range_exact(&query, &ds, 4.0).unwrap();
    assert_eq!(unlimited.matches, truth);
    assert!(unlimited.budget_exhausted.is_empty());
}

#[test]
fn parallel_verification_is_bit_identical_to_sequential() {
    // The verify phase runs through BatchRunner; thread count must never
    // change a search answer.
    let ds = ged_testkit::aids_store(50, 45);
    let query = ged_testkit::external_query(450);
    let sequential = ged_testkit::gedgw_engine(1);
    let parallel = ged_testkit::gedgw_engine(4);
    let a = sequential.top_k(&query, &ds, 7).unwrap();
    let b = parallel.top_k(&query, &ds, 7).unwrap();
    assert_eq!(a.stats, b.stats, "plan is thread-independent");
    assert_same(&a.neighbors, &b.neighbors, "threads=1 vs threads=4");

    let tau = a.neighbors[3].ged;
    let ra = sequential.range(&query, &ds, tau).unwrap();
    let rb = parallel.range(&query, &ds, tau).unwrap();
    assert_eq!(ra.stats, rb.stats);
    assert_same(&ra.neighbors, &rb.neighbors, "range threads=1 vs 4");
}

#[test]
fn stored_and_foreign_ids_resolve_through_store_ref() {
    let store = aids_store(12, 9801);
    let (sharded, map) = sharded_copy(&store, 4);
    let engine = engine_builder(&[MethodKind::Gedgw])
        .build()
        .expect("valid configuration");

    // A stored graph, looked up by id, is its own match at distance 0 on
    // both store kinds, and the two answers agree under the id twin.
    let (id, query) = store.iter().next().expect("nonempty store");
    let flat = engine.range(query, &store, 5.0).expect("direct query");
    assert!(
        flat.neighbors.iter().any(|n| n.id == id && n.ged == 0.0),
        "the query graph matches itself at distance 0"
    );
    let sid = map[&id];
    let stored = StoreRef::from(&sharded).get(sid).expect("stored id");
    assert_eq!(stored, query, "the id twin holds the same graph");
    let shard = engine.range(stored, &sharded, 5.0).expect("stored id");
    let twins: Vec<Neighbor> = flat
        .neighbors
        .iter()
        .map(|n| Neighbor {
            id: map[&n.id],
            ged: n.ged,
        })
        .collect();
    assert_same(&shard.neighbors, &twins, "sharded vs flat");

    // An id minted by another store resolves in neither.
    let foreign = external_query(9803);
    let mut scratch = GraphStore::new();
    let foreign_id = scratch.insert(foreign);
    assert!(StoreRef::from(&store).get(foreign_id).is_none());
    assert!(StoreRef::from(&sharded).get(foreign_id).is_none());
}
