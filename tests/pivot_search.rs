//! Property-style integration tests for the triangle-inequality pivot
//! tier (`GedEngineBuilder::pivots`). Pivots live in the shards of a
//! `ShardedStore` (`GedEngine::sync_sharded_pivots`), so every store here
//! is a synced `sharded_copy` of an AIDS/LINUX-like store:
//!
//! * the derived `[lb, ub]` bounds sandwich the exact GED for **every**
//!   query–candidate pair;
//! * `TopK` / `Range` with pivots stay bit-identical to the brute-force
//!   scan applying the same two-sided bound refinement, across methods,
//!   with the pivot prune and accept tiers visibly firing;
//! * `RangeExact` with pivots is bit-identical to both the brute-force
//!   τ-bounded exact scan *and* the pivot-free plan, while the τ-A\*
//!   verifications strictly decrease;
//! * everything is thread-count invariant;
//! * incremental `insert` / `remove` — including removing a pivot graph
//!   itself, which forces reselection — keeps every answer equal to the
//!   brute-force scan a freshly built index must also equal;
//! * edge cases: `p = 0`, `p ≥` shard size, `τ = 0`, `τ = ∞` (where
//!   finite pivot tables certify every candidate) and single-graph
//!   stores;
//! * `ExactSearchStats::total()` closes to the store size for every
//!   query, whichever tiers fire, under a strangled verify budget too;
//! * a stored query arms by reusing its own table row
//!   (`pivot_distances == 0` on a one-shard store), while an isomorphic
//!   but node-permuted copy falls back to the oracle and still answers
//!   identically;
//! * collapsed verification: a candidate whose pivot interval is tight
//!   (`lb == ub`) is answered from the bound without a solver call.

use ged_testkit::{
    aids_store, assert_same_neighbors as assert_same, brute_range, brute_range_exact, brute_top_k,
    counting_engine_builder, engine_builder, expected_pivot_distances, external_query, linux_store,
    sharded_copy, solver_for, PivotBounds,
};
use ot_ged::prelude::*;
use std::sync::atomic::Ordering;

/// GEDGW-only engine with `threads` workers and `p` pivots.
fn engine(threads: usize, p: usize) -> GedEngine {
    engine_builder(&[MethodKind::Gedgw])
        .threads(threads)
        .pivots(p)
        .build()
        .expect("valid configuration")
}

/// A bucket-width-4 sharded copy of `store` with its pivot blocks synced
/// at `engine`'s target.
fn synced_copy(store: &GraphStore, engine: &GedEngine) -> ShardedStore {
    let (mut sharded, _) = sharded_copy(store, 4);
    engine.sync_sharded_pivots(&mut sharded);
    sharded
}

/// The engine's pivot bounds for `query`, after asserting that they
/// cover every graph and sandwich its exact GED.
fn assert_sandwich(e: &GedEngine, query: &Graph, sharded: &ShardedStore, ctx: &str) -> PivotBounds {
    let bounds = e.sharded_pivot_bounds(query, sharded).expect("synced");
    assert_eq!(bounds.len(), sharded.len(), "{ctx}: one bound per graph");
    for (id, g) in sharded.iter() {
        let (lb, ub) = bounds[&id];
        let d = bounded_exact_ged(query, g, usize::MAX / 2).expect("unbounded search concludes");
        assert!(
            lb <= d && d <= ub,
            "{ctx}/{id}: [{lb}, {ub}] must contain {d}"
        );
    }
    bounds
}

/// Every pivot of every shard's block.
fn block_pivots(sharded: &ShardedStore) -> Vec<GraphId> {
    sharded
        .shards()
        .filter_map(Shard::pivot_index)
        .flat_map(|index| index.pivots().iter().copied())
        .collect()
}

#[test]
fn pivot_bounds_sandwich_exact_ged_for_all_pairs() {
    for (store, tag) in [
        (aids_store(18, 901), "AIDS"),
        (linux_store(16, 902), "LINUX"),
    ] {
        let e = engine(1, 3);
        let sharded = synced_copy(&store, &e);
        let member = store.graphs().next().unwrap().clone();
        assert_sandwich(&e, &member, &sharded, &format!("{tag}/member"));
        assert_sandwich(
            &e,
            &external_query(903),
            &sharded,
            &format!("{tag}/external"),
        );
    }
}

#[test]
fn top_k_and_range_with_pivots_equal_brute_force_across_methods() {
    // A member query (close neighbors exist, so the k-th-best threshold
    // tightens) and a foreign one: the plans equal the oracle clamped
    // into the engine's own per-shard pivot bounds, and the pivot prune
    // and accept tiers both fire.
    for (store, tag) in [
        (aids_store(40, 911), "AIDS"),
        (linux_store(35, 912), "LINUX"),
    ] {
        let e = engine_builder(&[MethodKind::Gedgw, MethodKind::Classic])
            .threads(1)
            .pivots(4)
            .build()
            .expect("valid configuration");
        let sharded = synced_copy(&store, &e);
        let (mut pruned, mut accepted) = (0, 0);
        for query in [store.graphs().next().unwrap().clone(), external_query(913)] {
            let bounds = e.sharded_pivot_bounds(&query, &sharded).expect("synced");
            for method in [MethodKind::Gedgw, MethodKind::Classic] {
                let (solver, opts) = (solver_for(method), QueryOpts::with_method(method));
                let all = brute_top_k(&sharded, &query, &*solver, usize::MAX, Some(&bounds));
                for k in [1, 5, all.len()] {
                    let (store, query) = ((&sharded).into(), &query);
                    let got = e.query_with(GedQuery::TopK { query, store, k }, opts);
                    let got = got.unwrap().into_top_k().unwrap();
                    assert_same(&got.neighbors, &all[..k], &format!("{tag}/{method}/k={k}"));
                    let st = got.stats;
                    assert_eq!(st.pruned() + st.verified, st.candidates, "{tag}: closes");
                    pruned += st.pruned_pivot;
                }
                for tau in [all[2].ged, all[all.len() / 4].ged] {
                    let ctx = format!("{tag}/{method}/tau={tau:.3}");
                    let (store, query) = ((&sharded).into(), &query);
                    let got = e.query_with(GedQuery::Range { query, store, tau }, opts);
                    let got = got.unwrap().into_range().unwrap();
                    let want = brute_range(&sharded, query, &*solver, tau, Some(&bounds));
                    assert_same(&got.neighbors, &want, &ctx);
                    assert!(!got.neighbors.is_empty(), "{ctx}: τ chosen non-trivial");
                    let st = got.stats;
                    assert_eq!(st.pruned() + st.verified, st.candidates, "{ctx}: closes");
                    pruned += st.pruned_pivot;
                    accepted += st.accepted_pivot;
                }
            }
        }
        assert!(pruned > 0, "{tag}: the pivot filter tier never pruned");
        assert!(accepted > 0, "{tag}: the pivot accept tier never certified");
    }
}

#[test]
fn range_exact_with_pivots_is_bit_identical_to_disabled_and_brute_force() {
    for (store, tag) in [
        (aids_store(40, 921), "AIDS"),
        (linux_store(35, 922), "LINUX"),
    ] {
        let (with, without) = (engine(1, 4), engine(1, 0));
        let sharded = synced_copy(&store, &with);
        let query = store.graphs().next().unwrap().clone();
        let (mut fired, mut verified_with, mut verified_without) = (0, 0, 0);
        for tau in [1usize, 3, 5] {
            let ctx = format!("{tag}/tau={tau}");
            let a = with.range_exact(&query, &sharded, tau as f64).unwrap();
            let b = without.range_exact(&query, &sharded, tau as f64).unwrap();
            let brute = brute_range_exact(&sharded, &query, tau);
            assert_eq!(a.matches, brute, "{ctx}: pivots ≡ brute force");
            assert_eq!(a.matches, b.matches, "{ctx}: pivots ≡ pivot-free");
            assert_eq!(a.budget_exhausted, b.budget_exhausted, "{ctx}: unlimited");
            assert_eq!(a.stats.total(), sharded.len(), "{ctx}: accounting closes");
            assert_eq!(b.stats.total(), sharded.len(), "{ctx}: accounting closes");
            fired += a.stats.pruned_pivot + a.stats.accepted_pivot;
            verified_with += a.stats.verified;
            verified_without += b.stats.verified;
        }
        assert!(fired > 0, "{tag}: the pivot tiers never fired");
        assert!(
            verified_with < verified_without,
            "{tag}: pivots must strictly reduce τ-bounded verifications \
             ({verified_with} vs {verified_without})"
        );
    }
}

#[test]
fn pivot_searches_are_thread_count_invariant() {
    let store = aids_store(30, 931);
    let query = store.graphs().next().unwrap().clone();
    let (seq, par) = (engine(1, 3), engine(4, 3));
    // Both engines share the pivot target and verify budget, so one sync
    // serves both.
    let sharded = synced_copy(&store, &seq);

    let a = seq.top_k(&query, &sharded, 7).unwrap();
    let b = par.top_k(&query, &sharded, 7).unwrap();
    assert_eq!(a.stats, b.stats, "plan is thread-independent");
    assert_same(&a.neighbors, &b.neighbors, "top-k threads=1 vs 4");

    let tau = a.neighbors[4].ged;
    let ra = seq.range(&query, &sharded, tau).unwrap();
    let rb = par.range(&query, &sharded, tau).unwrap();
    assert_eq!(ra.stats, rb.stats);
    assert_same(&ra.neighbors, &rb.neighbors, "range threads=1 vs 4");

    let ea = seq.range_exact(&query, &sharded, 4.0).unwrap();
    let eb = par.range_exact(&query, &sharded, 4.0).unwrap();
    assert!(
        ea.stats.pruned_pivot + ea.stats.accepted_pivot > 0,
        "pivots fire"
    );
    assert_eq!(ea, eb, "exact answers are thread-independent");
}

#[test]
fn incremental_updates_match_a_freshly_built_index() {
    let (mut sharded, _) = sharded_copy(&aids_store(24, 941), 4);
    let e = engine(1, 3);
    let query = external_query(942);
    // After each round of mutations, the incrementally synced blocks
    // keep the sandwich and every answer exact: RangeExact equals the
    // brute-force scan (as a fresh build must), TopK the oracle under
    // the synced bounds.
    let check = |round: usize, sharded: &mut ShardedStore| {
        let ctx = format!("round {round}");
        e.sync_sharded_pivots(sharded);
        let bounds = assert_sandwich(&e, &query, sharded, &ctx);
        let exact = e.range_exact(&query, &*sharded, 4.0).unwrap();
        assert_eq!(
            exact.matches,
            brute_range_exact(&*sharded, &query, 4),
            "{ctx}"
        );
        assert_eq!(
            exact.stats.total(),
            sharded.len(),
            "{ctx}: accounting closes"
        );
        let top = e.top_k(&query, &*sharded, 5).unwrap();
        let want = brute_top_k(&*sharded, &query, &GedgwSolver, 5, Some(&bounds));
        assert_same(&top.neighbors, &want, &ctx);
    };

    check(0, &mut sharded);
    // Round 1: remove a *pivot* graph — its shard must deselect it,
    // reselect a replacement, and keep answering exactly.
    let victim = block_pivots(&sharded)[0];
    sharded.remove(victim);
    check(1, &mut sharded);
    assert!(
        !block_pivots(&sharded).contains(&victim),
        "pivot deselected"
    );
    for shard in sharded.shards() {
        let pivots = shard.pivot_index().expect("synced").pivots().len();
        assert_eq!(pivots, shard.store().len().min(3), "pivot count restored");
    }
    // Round 2: remove a non-pivot, insert two fresh graphs.
    let pivots = block_pivots(&sharded);
    let ids = sharded.ids();
    let non_pivot = ids.iter().find(|id| !pivots.contains(id)).expect("exists");
    sharded.remove(*non_pivot);
    for g in aids_store(2, 943).graphs() {
        sharded.insert(g.clone());
    }
    check(2, &mut sharded);
    // Round 3: interleave again — insert, then remove the current best.
    let best = e.top_k(&query, &sharded, 1).unwrap().neighbors[0].id;
    sharded.remove(best);
    sharded.insert(external_query(944));
    check(3, &mut sharded);
}

#[test]
fn pivot_edge_cases() {
    // p = 0: syncing leaves no blocks, and no bounds arm.
    let store = aids_store(12, 951);
    let query = store.graphs().next().unwrap().clone();
    let zero = engine(1, 0);
    let sharded = synced_copy(&store, &zero);
    assert!(block_pivots(&sharded).is_empty());
    assert!(zero.sharded_pivot_bounds(&query, &sharded).is_none());

    // p ≥ shard size: every graph becomes a pivot of its shard; queries
    // still agree with brute force and the sandwich holds.
    let all_pivots = engine(1, 50);
    let small = synced_copy(&aids_store(6, 952), &all_pivots);
    assert_eq!(block_pivots(&small).len(), small.len());
    let q = small.graphs().next().unwrap().clone();
    assert_sandwich(&all_pivots, &q, &small, "p ≥ shard size");
    let result = all_pivots.range_exact(&q, &small, 3.0).unwrap();
    assert_eq!(result.matches, brute_range_exact(&small, &q, 3));
    assert_eq!(result.stats.total(), small.len());

    // τ = 0: only exact self-matches survive, pivot tier or not.
    let e = engine(1, 3);
    let sharded = synced_copy(&store, &e);
    let z = e.range_exact(&query, &sharded, 0.0).unwrap();
    assert_eq!(z.matches, brute_range_exact(&sharded, &query, 0));
    assert!(
        z.matches.iter().any(|m| m.ged == 0),
        "member matches itself"
    );
    assert_eq!(z.stats.total(), sharded.len());

    // τ = ∞: every table entry is finite, so the pivot upper bounds
    // certify each candidate — through real bounds, never the vacuous
    // `(0, usize::MAX)` of the pivot-free plan (whose half of this
    // regression is the engine's unit test
    // `disabled_pivot_tier_never_certifies_at_infinite_tau`).
    let inf = e.range_exact(&query, &sharded, f64::INFINITY).unwrap();
    assert_eq!(inf.stats.accepted_pivot, sharded.len());
    assert_eq!(inf.matches, brute_range_exact(&sharded, &query, usize::MAX));

    // A single-graph store: selection clamps to one pivot; every query
    // kind still answers.
    let mut solo = ShardedStore::new(4);
    let lone = solo.insert(query.clone());
    e.sync_sharded_pivots(&mut solo);
    assert_eq!(block_pivots(&solo), vec![lone]);
    assert_eq!(e.top_k(&query, &solo, 1).unwrap().neighbors[0].id, lone);
    let rx = e.range_exact(&query, &solo, 0.0).unwrap();
    assert_eq!(rx.matches, vec![ExactNeighbor { id: lone, ged: 0 }]);
    assert_eq!(rx.stats.total(), 1);
}

#[test]
fn exact_accounting_closes_for_every_query_and_budget() {
    let store = aids_store(25, 961);
    let member = store.graphs().next().unwrap().clone();
    let foreign = external_query(962);
    for budget in [usize::MAX, 1, 16, 256] {
        let e = engine_builder(&[MethodKind::Gedgw])
            .threads(1)
            .pivots(3)
            .verify_budget(budget)
            .build()
            .unwrap();
        let sharded = synced_copy(&store, &e);
        for (query, qtag) in [(&member, "member"), (&foreign, "external")] {
            for tau in [0.0, 2.0, 5.0, f64::INFINITY] {
                let ctx = format!("budget={budget}/{qtag}/tau={tau}");
                let result = e.range_exact(query, &sharded, tau).unwrap();
                let st = result.stats;
                assert_eq!(st.total(), sharded.len(), "{ctx}: every graph in one tier");
                assert_eq!(st.budget_exceeded, result.budget_exhausted.len(), "{ctx}");
                // Approximate plans close too (overlay counters aside).
                let s = e.range(query, &sharded, tau).unwrap().stats;
                assert_eq!(s.pruned() + s.verified, s.candidates, "{ctx}: range");
            }
        }
    }
}

/// `g` with its node order reversed: an isomorphic copy that is not `==`
/// to `g` unless the reversal happens to be an automorphism.
fn reversed(g: &Graph) -> Graph {
    let last = g.num_nodes() as u32 - 1;
    let labels = g.labels().iter().rev().copied().collect();
    let edges: Vec<(u32, u32)> = g.edges().map(|(u, v)| (last - u, last - v)).collect();
    Graph::from_edges(labels, &edges)
}

#[test]
fn stored_queries_arm_from_their_own_table_row() {
    // One shard (unbounded bucket width) holds every graph, so a stored
    // query's own row is the whole pivot table: arming costs nothing.
    let store = aids_store(24, 971);
    let e = engine(1, 3);
    let (mut sharded, _) = sharded_copy(&store, usize::MAX);
    e.sync_sharded_pivots(&mut sharded);
    assert_eq!(sharded.shard_count(), 1);
    for (id, query) in sharded.iter().step_by(5) {
        let ctx = format!("stored {id}");
        let inline = e.range_exact(query, &sharded, 2.0).unwrap();
        assert_eq!(inline.stats.pivot_distances, 0, "{ctx}: row reused");
        assert_eq!(
            inline.matches,
            brute_range_exact(&sharded, query, 2),
            "{ctx}"
        );
        let top = e.top_k(query, &sharded, 4).unwrap();
        assert_eq!(top.stats.pivot_distances, 0, "{ctx}: top-k");
        let range = e.range(query, &sharded, 2.0).unwrap();
        assert_eq!(range.stats.pivot_distances, 0, "{ctx}: range");
    }

    let foreign = external_query(972);
    assert!(
        sharded.graphs().all(|g| *g != foreign),
        "the query is foreign"
    );
    let armed = e.range_exact(&foreign, &sharded, 2.0).unwrap();
    assert_eq!(
        armed.stats.pivot_distances, 3,
        "a foreign query computes one distance per pivot"
    );
    assert_eq!(armed.stats.total(), sharded.len(), "the overlay stays out");
}

#[test]
fn a_permuted_copy_falls_back_to_the_oracle_with_identical_answers() {
    let store = aids_store(24, 981);
    let e = engine(1, 3);
    let sharded = synced_copy(&store, &e);
    let (id, stored, copy) = sharded
        .iter()
        .find_map(|(id, g)| Some((id, g, reversed(g))).filter(|(_, g, c)| c != *g))
        .expect("some graph is not reversal-symmetric");
    assert!(sharded.graphs().all(|g| *g != copy), "the copy is foreign");

    // Under the default unlimited budget every pivot distance is exact,
    // and exact GED is invariant under node permutation: the computed
    // rows equal the reused one.
    assert_eq!(
        e.sharded_pivot_bounds(&copy, &sharded),
        e.sharded_pivot_bounds(stored, &sharded),
    );
    let own = sharded.shards().find(|s| s.store().contains(id));
    let want = e.range_exact(stored, &sharded, 2.0).unwrap();
    let got = e.range_exact(&copy, &sharded, 2.0).unwrap();
    let stored_cost = expected_pivot_distances(&sharded, stored, 2, own.map(Shard::bucket));
    assert_eq!(want.stats.pivot_distances, stored_cost, "own row reused");
    let copy_cost = expected_pivot_distances(&sharded, &copy, 2, None);
    assert_eq!(got.stats.pivot_distances, copy_cost, "the copy computes");
    assert!(copy_cost > stored_cost);
    let strip = |s: ExactSearchStats| ExactSearchStats {
        pivot_distances: 0,
        ..s
    };
    assert_eq!(strip(got.stats), strip(want.stats), "same tier counts");
    assert_eq!(got.matches, want.matches, "same exact answers");
    assert_eq!(got.budget_exhausted, want.budget_exhausted);
}

#[test]
fn collapsed_verification_eliminates_solver_calls_on_tight_intervals() {
    // A query drawn from a shard's own pivot set has an exact pivot
    // distance to every member of that shard: lb == ub there. One shard
    // (unbounded bucket width) makes that the whole store, so
    // verification answers every candidate from the bounds without one
    // solver invocation.
    let store = aids_store(14, 9501);
    let (builder, calls) = counting_engine_builder();
    let e = builder.pivots(3).build().expect("valid configuration");
    let (mut sharded, _) = sharded_copy(&store, usize::MAX);
    e.sync_sharded_pivots(&mut sharded);
    let query = sharded.get(block_pivots(&sharded)[0]).unwrap().clone();
    let bounds = assert_sandwich(&e, &query, &sharded, "pivot member");
    assert!(
        bounds.values().all(|(lb, ub)| lb == ub),
        "all intervals tight"
    );

    let range = e.range(&query, &sharded, 6.0).expect("valid query");
    let want = brute_range(&sharded, &query, &GedgwSolver, 6.0, Some(&bounds));
    assert_same(&range.neighbors, &want, "pivot-member range");
    assert!(
        range.stats.verified > 0,
        "the workload reaches verification"
    );
    assert_eq!(calls.load(Ordering::Relaxed), 0, "range collapses");

    let top = e.top_k(&query, &sharded, 4).expect("valid query");
    let want = brute_top_k(&sharded, &query, &GedgwSolver, 4, Some(&bounds));
    assert_same(&top.neighbors, &want, "pivot-member top-k");
    assert_eq!(calls.load(Ordering::Relaxed), 0, "top-k collapses too");
}
