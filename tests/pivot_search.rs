//! Property-style integration tests for the triangle-inequality pivot
//! tier (`GedEngineBuilder::pivots`):
//!
//! * the derived `[lb, ub]` bounds sandwich the exact GED for **every**
//!   query–candidate pair on random AIDS/LINUX stores;
//! * `TopK` / `Range` with pivots stay bit-identical to the brute-force
//!   scan applying the same two-sided bound refinement, across methods,
//!   with the pivot filter tier visibly pruning;
//! * `RangeExact` with pivots is bit-identical to both the brute-force
//!   τ-bounded exact scan *and* the pivot-disabled plan, while the τ-A\*
//!   verifications strictly decrease;
//! * everything is thread-count invariant;
//! * incremental `insert` / `remove` — including removing a pivot graph
//!   itself, which forces reselection — keeps every query exactly equal
//!   to a freshly built index;
//! * edge cases: `p = 0`, `p ≥ store.len()`, `τ = 0`, single-graph
//!   stores;
//! * regression: `ExactSearchStats::total()` closes to the store size
//!   for every query, whichever tiers fire (including under a strangled
//!   verify budget);
//! * a stored query — inline or by id — arms by reusing its own table
//!   row (`pivot_distances == 0`), while an isomorphic but node-permuted
//!   copy falls back to the oracle and still answers identically;
//! * collapsed verification: a candidate whose pivot interval is tight
//!   (`lb == ub`) is answered from the bound without a solver call.

use ged_testkit::{
    aids_store, assert_same_neighbors as assert_same, brute_force_refined, brute_range,
    brute_range_exact, brute_top_k, counting_engine_builder, engine_builder, external_query,
    linux_store, solver_for,
};
use ot_ged::prelude::*;
use std::sync::atomic::Ordering;

/// The standard pivoted engine of this suite: GEDGW + Classic, `p`
/// pivots, deterministic single-threaded verification.
fn pivoted_engine(p: usize) -> GedEngine {
    engine_builder(&[MethodKind::Gedgw, MethodKind::Classic])
        .threads(1)
        .pivots(p)
        .build()
        .expect("valid configuration")
}

/// Unbounded exact GED (the ground truth the bounds must contain).
fn exact(g1: &Graph, g2: &Graph) -> usize {
    bounded_exact_ged(g1, g2, usize::MAX / 2).expect("unbounded search always concludes")
}

#[test]
fn pivot_bounds_sandwich_exact_ged_for_all_pairs() {
    for (store, tag) in [
        (aids_store(18, 901), "AIDS"),
        (linux_store(16, 902), "LINUX"),
    ] {
        let engine = pivoted_engine(3);
        let member = store.graphs().next().unwrap().clone();
        let foreign = external_query(903);
        for (query, qtag) in [(&member, "member"), (&foreign, "external")] {
            let bounds = engine.pivot_bounds(query, &store).expect("pivots enabled");
            assert_eq!(bounds.len(), store.len(), "{tag}: one bound per graph");
            for (id, g) in store.iter() {
                let (lb, ub) = bounds[&id];
                let d = exact(query, g);
                assert!(
                    lb <= d && d <= ub,
                    "{tag}/{qtag}/{id}: [{lb}, {ub}] must contain exact GED {d}"
                );
            }
        }
    }
}

#[test]
fn top_k_and_range_with_pivots_equal_brute_force_across_methods() {
    for (store, tag) in [
        (aids_store(40, 911), "AIDS"),
        (linux_store(35, 912), "LINUX"),
    ] {
        let engine = pivoted_engine(4);
        // A member query: close neighbors exist, the k-th-best threshold
        // tightens, and the query itself can end up among the pivots.
        let query = store.graphs().next().unwrap().clone();
        let mut pivot_pruned = 0usize;
        let mut pivot_accepted = 0usize;
        for method in [MethodKind::Gedgw, MethodKind::Classic] {
            let bounds = engine.pivot_bounds(&query, &store).expect("pivots enabled");
            let solver = solver_for(method);
            let brute = brute_force_refined(&store, &query, solver.as_ref(), Some(&bounds));

            for k in [1usize, 5, store.len()] {
                let ctx = format!("{tag}/{method}/k={k}");
                let (q, s, opts) = (&query, (&store).into(), QueryOpts::with_method(method));
                let top_k = GedQuery::TopK {
                    query: q,
                    store: s,
                    k,
                };
                let result = engine.query_with(top_k, opts).expect("valid query");
                let result = result.into_top_k().unwrap();
                let want = brute_top_k(&store, &query, solver.as_ref(), k, Some(&bounds));
                assert_same(&result.neighbors, &want, &ctx);
                assert_eq!(
                    result.stats.pruned() + result.stats.verified,
                    result.stats.candidates,
                    "{ctx}: accounting must close"
                );
                pivot_pruned += result.stats.pruned_pivot;
            }

            let taus = [brute[2].ged, brute[brute.len() / 4].ged];
            for tau in taus {
                let ctx = format!("{tag}/{method}/tau={tau:.3}");
                let (q, s, opts) = (&query, (&store).into(), QueryOpts::with_method(method));
                let range = GedQuery::Range {
                    query: q,
                    store: s,
                    tau,
                };
                let result = engine.query_with(range, opts).expect("valid query");
                let result = result.into_range().unwrap();
                let want = brute_range(&store, &query, solver.as_ref(), tau, Some(&bounds));
                assert_same(&result.neighbors, &want, &ctx);
                assert!(!result.neighbors.is_empty(), "{ctx}: τ chosen non-trivial");
                assert_eq!(
                    result.stats.pruned() + result.stats.verified,
                    result.stats.candidates,
                    "{ctx}: accounting must close"
                );
                pivot_pruned += result.stats.pruned_pivot;
                pivot_accepted += result.stats.accepted_pivot;
            }
        }
        assert!(
            pivot_pruned > 0,
            "{tag}: the pivot filter tier never pruned"
        );
        assert!(
            pivot_accepted > 0,
            "{tag}: the pivot range-accept tier never certified a match"
        );
    }
}

#[test]
fn range_exact_with_pivots_is_bit_identical_to_disabled_and_brute_force() {
    for (store, tag) in [
        (aids_store(40, 921), "AIDS"),
        (linux_store(35, 922), "LINUX"),
    ] {
        let with = pivoted_engine(4);
        let without = pivoted_engine(0);
        let query = store.graphs().next().unwrap().clone();
        let mut fired = ExactSearchStats::default();
        let (mut verified_with, mut verified_without) = (0usize, 0usize);
        for tau in [1usize, 3, 5] {
            let ctx = format!("{tag}/tau={tau}");
            let a = with.range_exact(&query, &store, tau as f64).unwrap();
            let b = without.range_exact(&query, &store, tau as f64).unwrap();
            let brute = brute_range_exact(&store, &query, tau);
            assert_eq!(a.matches, brute, "{ctx}: pivots ≡ brute force");
            assert_eq!(a.matches, b.matches, "{ctx}: pivots ≡ pivot-disabled");
            assert_eq!(a.budget_exhausted, b.budget_exhausted, "{ctx}: unlimited");
            assert_eq!(a.stats.total(), store.len(), "{ctx}: accounting closes");
            assert_eq!(b.stats.total(), store.len(), "{ctx}: accounting closes");
            fired.pruned_pivot += a.stats.pruned_pivot;
            fired.accepted_pivot += a.stats.accepted_pivot;
            verified_with += a.stats.verified;
            verified_without += b.stats.verified;
        }
        assert!(
            fired.pruned_pivot + fired.accepted_pivot > 0,
            "{tag}: the pivot tiers never fired"
        );
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
    let build = |threads: usize| {
        engine_builder(&[MethodKind::Gedgw])
            .threads(threads)
            .pivots(3)
            .build()
            .expect("valid configuration")
    };
    let (seq, par) = (build(1), build(4));

    let a = seq.top_k(&query, &store, 7).unwrap();
    let b = par.top_k(&query, &store, 7).unwrap();
    assert_eq!(a.stats, b.stats, "plan is thread-independent");
    assert_same(&a.neighbors, &b.neighbors, "top-k threads=1 vs 4");

    let tau = a.neighbors[4].ged;
    let ra = seq.range(&query, &store, tau).unwrap();
    let rb = par.range(&query, &store, tau).unwrap();
    assert_eq!(ra.stats, rb.stats);
    assert_same(&ra.neighbors, &rb.neighbors, "range threads=1 vs 4");

    let ea = seq.range_exact(&query, &store, 4.0).unwrap();
    let eb = par.range_exact(&query, &store, 4.0).unwrap();
    assert_eq!(ea, eb, "exact answers are thread-independent");
}

#[test]
fn incremental_updates_match_a_freshly_built_index() {
    let mut store = aids_store(24, 941);
    let incremental = pivoted_engine(3);
    let query = external_query(942);

    let check = |round: usize, store: &GraphDataset, engine: &GedEngine| {
        let ctx = format!("round {round}");
        // RangeExact: exact semantics make fresh-vs-incremental equality
        // a theorem — assert it against a brand-new engine (fresh index)
        // and the brute-force scan.
        let fresh = pivoted_engine(3);
        let a = engine.range_exact(&query, store, 4.0).unwrap();
        let b = fresh.range_exact(&query, store, 4.0).unwrap();
        let brute = brute_range_exact(store, &query, 4);
        assert_eq!(a.matches, brute, "{ctx}: incremental ≡ brute force");
        assert_eq!(a.matches, b.matches, "{ctx}: incremental ≡ fresh build");
        assert_eq!(a.stats.total(), store.len(), "{ctx}: accounting closes");
        // TopK stays equal to the brute scan under the *synced* bounds.
        let bounds = engine.pivot_bounds(&query, store).expect("pivots enabled");
        assert_eq!(bounds.len(), store.len(), "{ctx}: bounds track the store");
        for (id, g) in store.iter() {
            let (lb, ub) = bounds[&id];
            let d = exact(&query, g);
            assert!(lb <= d && d <= ub, "{ctx}/{id}: sandwich after sync");
        }
        let result = engine.top_k(&query, store, 5).unwrap();
        let want = brute_top_k(store, &query, &GedgwSolver, 5, Some(&bounds));
        assert_same(&result.neighbors, &want, &ctx);
    };

    check(0, &store, &incremental);
    // Round 1: remove a *pivot* graph — the index must deselect it,
    // reselect a replacement, and keep answering exactly.
    let victim = incremental.pivot_ids(&store)[0];
    store.remove(victim);
    check(1, &store, &incremental);
    assert!(
        !incremental.pivot_ids(&store).contains(&victim),
        "a removed pivot must be deselected"
    );
    assert_eq!(
        incremental.pivot_ids(&store).len(),
        3,
        "reselection restores the pivot count"
    );
    // Round 2: remove a non-pivot, insert two fresh graphs.
    let non_pivot = *store
        .ids()
        .iter()
        .find(|id| !incremental.pivot_ids(&store).contains(id))
        .expect("24-graph store has non-pivots");
    store.remove(non_pivot);
    let fresh_pair = aids_store(2, 943);
    for g in fresh_pair.graphs() {
        store.insert(g.clone());
    }
    check(2, &store, &incremental);
    // Round 3: interleave again — insert, then remove the current best.
    let best = incremental.top_k(&query, &store, 1).unwrap().neighbors[0].id;
    store.remove(best);
    store.insert(external_query(944));
    check(3, &store, &incremental);
}

#[test]
fn pivot_edge_cases() {
    // p = 0 is exactly the pivot-disabled engine, bit for bit.
    let store = aids_store(12, 951);
    let query = store.graphs().next().unwrap().clone();
    let zero = pivoted_engine(0);
    assert!(zero.pivot_bounds(&query, &store).is_none());
    assert!(zero.pivot_ids(&store).is_empty());

    // p ≥ store.len(): every graph becomes a pivot; queries still agree
    // with brute force and the sandwich stays tight (the table is exact).
    let small = aids_store(6, 952);
    let all_pivots = pivoted_engine(50);
    assert_eq!(all_pivots.pivot_ids(&small).len(), small.len());
    let q = small.graphs().next().unwrap().clone();
    let bounds = all_pivots.pivot_bounds(&q, &small).unwrap();
    for (id, g) in small.iter() {
        let (lb, ub) = bounds[&id];
        let d = exact(&q, g);
        assert!(lb <= d && d <= ub);
    }
    let result = all_pivots.range_exact(&q, &small, 3.0).unwrap();
    assert_eq!(result.matches, brute_range_exact(&small, &q, 3));
    assert_eq!(result.stats.total(), small.len());

    // τ = 0: only exact self-matches survive, pivot tier or not.
    let strict = pivoted_engine(3);
    let z = strict.range_exact(&query, &store, 0.0).unwrap();
    assert_eq!(z.matches, brute_range_exact(&store, &query, 0));
    assert!(
        z.matches.iter().any(|m| m.ged == 0),
        "member matches itself"
    );
    assert_eq!(z.stats.total(), store.len());

    // A single-graph store: selection clamps to one pivot; every query
    // kind still answers.
    let mut solo = GraphStore::new();
    let lone = solo.insert(query.clone());
    let engine = pivoted_engine(2);
    assert_eq!(engine.pivot_ids(&solo), vec![lone]);
    let top = engine.top_k(&query, &solo, 1).unwrap();
    assert_eq!(top.neighbors[0].id, lone);
    let rx = engine.range_exact(&query, &solo, 0.0).unwrap();
    assert_eq!(rx.matches, vec![ExactNeighbor { id: lone, ged: 0 }]);
    assert_eq!(rx.stats.total(), 1);
}

#[test]
fn exact_accounting_closes_for_every_query_and_budget() {
    let store = aids_store(25, 961);
    let member = store.graphs().next().unwrap().clone();
    let foreign = external_query(962);
    let engines = [
        ("unlimited", pivoted_engine(3)),
        (
            "strangled",
            engine_builder(&[MethodKind::Gedgw])
                .threads(1)
                .pivots(3)
                .verify_budget(40)
                .build()
                .unwrap(),
        ),
    ];
    for (etag, engine) in &engines {
        for (query, qtag) in [(&member, "member"), (&foreign, "external")] {
            for tau in [0.0, 2.0, 5.0, f64::INFINITY] {
                let ctx = format!("{etag}/{qtag}/tau={tau}");
                let result = engine.range_exact(query, &store, tau).unwrap();
                assert_eq!(
                    result.stats.total(),
                    store.len(),
                    "{ctx}: the six tiers must account for every stored \
                     graph: {:?}",
                    result.stats
                );
                assert_eq!(
                    result.stats.budget_exceeded,
                    result.budget_exhausted.len(),
                    "{ctx}: stats mirror the undecided list"
                );
                // Approximate plans close too (overlay counters aside).
                let s = engine.range(query, &store, tau).unwrap().stats;
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
    let store = aids_store(24, 971);
    let engine = pivoted_engine(3);
    for (id, query) in store.iter().step_by(5) {
        let ctx = format!("stored {id}");
        let inline = engine.range_exact(query, &store, 2.0).unwrap();
        assert_eq!(inline.stats.pivot_distances, 0, "{ctx}: row reused");
        let top = engine.top_k(query, &store, 4).unwrap();
        assert_eq!(top.stats.pivot_distances, 0, "{ctx}: top-k");
        let range = engine.range(query, &store, 2.0).unwrap();
        assert_eq!(range.stats.pivot_distances, 0, "{ctx}: range");
    }

    let foreign = external_query(972);
    assert!(
        store.graphs().all(|g| *g != foreign),
        "the query is foreign"
    );
    let armed = engine.range_exact(&foreign, &store, 2.0).unwrap();
    assert_eq!(
        armed.stats.pivot_distances, 3,
        "a foreign query computes one distance per pivot"
    );
    assert_eq!(armed.stats.total(), store.len(), "the overlay stays out");
}

#[test]
fn a_permuted_copy_falls_back_to_the_oracle_with_identical_answers() {
    let store = aids_store(24, 981);
    let engine = pivoted_engine(3);
    let (stored, copy) = store
        .graphs()
        .find_map(|g| {
            let copy = reversed(g);
            (copy != *g).then_some((g, copy))
        })
        .expect("some graph is not reversal-symmetric");
    assert!(
        store.graphs().all(|g| *g != copy),
        "no member equals the copy"
    );

    // Under the default unlimited budget every pivot distance is exact,
    // and exact GED is invariant under node permutation: the computed
    // row equals the reused one.
    assert_eq!(
        engine.pivot_bounds(&copy, &store),
        engine.pivot_bounds(stored, &store),
        "same pivot bounds"
    );
    let want = engine.range_exact(stored, &store, 2.0).unwrap();
    let got = engine.range_exact(&copy, &store, 2.0).unwrap();
    assert_eq!(want.stats.pivot_distances, 0, "the stored query reuses");
    assert_eq!(got.stats.pivot_distances, 3, "the copy computes");
    assert_eq!(got.matches, want.matches, "same exact answers");
    assert_eq!(got.budget_exhausted, want.budget_exhausted);
    assert_eq!(
        ExactSearchStats {
            pivot_distances: 0,
            ..got.stats
        },
        want.stats,
        "same pre-existing stats fields"
    );
}

#[test]
fn collapsed_verification_eliminates_solver_calls_on_tight_intervals() {
    // A query drawn from the engine's own pivot set has an exact pivot
    // distance to every stored graph: lb == ub everywhere, so
    // verification answers the whole candidate set from the bounds
    // without one solver invocation.
    let store = aids_store(14, 9501);
    let (builder, calls) = counting_engine_builder();
    let engine = builder.pivots(3).build().expect("valid configuration");
    let pivots = engine.pivot_ids(&store);
    let query = store.get(pivots[0]).expect("pivot is stored").clone();
    let bounds = engine.pivot_bounds(&query, &store).expect("pivots enabled");
    assert!(
        bounds.values().all(|(lb, ub)| lb == ub),
        "every interval is tight"
    );

    let range = engine.range(&query, &store, 6.0).expect("valid query");
    let want = brute_range(&store, &query, &GedgwSolver, 6.0, Some(&bounds));
    assert_same(&range.neighbors, &want, "pivot-member range");
    assert!(
        range.stats.verified > 0,
        "the workload reaches the verify tier"
    );
    assert_eq!(calls.load(Ordering::Relaxed), 0, "range collapses");

    let top = engine.top_k(&query, &store, 4).expect("valid query");
    let want = brute_top_k(&store, &query, &GedgwSolver, 4, Some(&bounds));
    assert_same(&top.neighbors, &want, "pivot-member top-k");
    assert_eq!(calls.load(Ordering::Relaxed), 0, "top-k collapses too");
}
