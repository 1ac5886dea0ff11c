//! GED-join property suite: [`GedQuery::SelfJoin`] / [`GedQuery::Join`]
//! must reproduce a brute-force nested loop over
//! [`bounded_exact_ged`] bit for bit, for every store kind, pivot
//! configuration, and thread count — the join tiers are
//! all exact or admissible, so no knob may change the answer.
//!
//! * self-join ≡ [`ged_testkit::brute_self_join`] and cross-store join
//!   ≡ [`ged_testkit::brute_join`] on the AIDS-like and LINUX-like
//!   property fixtures over a τ grid, with the oracle computed once per
//!   τ and reused across the whole configuration sweep;
//! * sharded joins translate to the flat answer through the
//!   [`ged_testkit::sharded_copy`] id map, pivots synced and unsynced;
//! * τ edge cases: `+∞` degrades to the full join with exact distances,
//!   `τ = 0` joins exactly the isomorphism classes, NaN is a
//!   [`GedError::Config`], negative τ matches nothing (every pair
//!   accounted in `filtered`), an empty store is
//!   [`GedError::EmptyStore`], and a single-graph self-join is an empty
//!   answer — not an error;
//! * `join(s, s)` covers all `n·m` ordered pairs including the
//!   diagonal, and symmetric duplicates verify once (`cache_hits`);
//! * [`JoinStats::total`] closes to the exact candidate pair count
//!   under every configuration, including a strangled verify budget —
//!   where matches stay exact and sound (a subset of the oracle) and
//!   the remainder surfaces in `budget_exhausted`;
//! * shared-work regression: the tiered join verifies strictly fewer
//!   pairs than the `n·(n−1)/2` / `n·m` nested loop would;
//! * a zero-duration [`Deadline`] aborts the join mid-execution with
//!   [`GedError::DeadlineExceeded`].

use ged_testkit::{
    aids_store, brute_join, brute_self_join, engine_builder, property_stores, sharded_copy,
};
use ot_ged::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

/// The τ grid the oracle sweeps share. Small on purpose: τ bounds the
/// verification effort, and the properties care about tier interplay,
/// not deep searches.
const TAUS: [usize; 3] = [0, 1, 2];

/// A single-method GEDGW engine with the swept knobs.
fn engine(threads: usize, pivots: usize) -> GedEngine {
    engine_builder(&[MethodKind::Gedgw])
        .threads(threads)
        .pivots(pivots)
        .build()
        .expect("valid configuration")
}

/// Maps both ids of flat-oracle pairs into a sharded copy's id space.
/// [`sharded_copy`] inserts in flat id order and ids are minted
/// monotonically, so the map preserves `(a, b)` sort order.
fn translate(pairs: &[JoinPair], map: &BTreeMap<GraphId, GraphId>) -> Vec<JoinPair> {
    pairs
        .iter()
        .map(|p| JoinPair {
            a: map[&p.a],
            b: map[&p.b],
            ged: p.ged,
        })
        .collect()
}

/// Maps only the right-hand ids (cross joins against a sharded corpus
/// keep the flat left store's ids).
fn translate_right(pairs: &[JoinPair], map: &BTreeMap<GraphId, GraphId>) -> Vec<JoinPair> {
    pairs
        .iter()
        .map(|p| JoinPair {
            a: p.a,
            b: map[&p.b],
            ged: p.ged,
        })
        .collect()
}

/// Asserts the invariants every *unlimited-budget* join result must
/// satisfy: the oracle answer bit for bit, nothing undecided, closed
/// accounting, and strictly less verification work than a nested loop.
fn assert_join(result: &JoinResult, oracle: &[JoinPair], total_pairs: usize, ctx: &str) {
    assert_eq!(result.pairs, oracle, "{ctx}: matches");
    assert!(
        result.budget_exhausted.is_empty(),
        "{ctx}: unlimited budget never leaves pairs undecided"
    );
    assert_eq!(
        result.stats.total(),
        total_pairs,
        "{ctx}: every candidate pair lands in exactly one tier\n{}",
        result.stats
    );
    assert!(
        result.stats.verified + result.stats.budget_exceeded < total_pairs,
        "{ctx}: the tiered join must verify strictly fewer pairs than \
         the nested loop ({} of {total_pairs} verified)",
        result.stats.verified,
    );
}

#[test]
fn self_join_matches_brute_force_all_pairs() {
    for dataset in property_stores() {
        let store = dataset.store();
        let n = store.len();
        let total = n * (n - 1) / 2;
        for tau in TAUS {
            let oracle = brute_self_join(store, tau);
            for threads in [1, 4] {
                for pivots in [0, 3] {
                    let ctx = format!(
                        "{}/tau={tau}/threads={threads}/pivots={pivots}",
                        dataset.kind.name()
                    );
                    let e = engine(threads, pivots);
                    let got = e.self_join(store, tau as f64).expect("valid join");
                    assert_join(&got, &oracle, total, &ctx);
                }
            }
        }
    }
}

#[test]
fn sharded_self_join_is_bit_identical_to_flat() {
    for dataset in property_stores() {
        let store = dataset.store();
        let n = store.len();
        let total = n * (n - 1) / 2;
        let tau = 2;
        let oracle = brute_self_join(store, tau);
        for bucket_width in [4, 100] {
            let (mut sharded, map) = sharded_copy(store, bucket_width);
            let want = translate(&oracle, &map);
            for pivots in [0, 3] {
                let ctx = format!(
                    "{}/width={bucket_width}/pivots={pivots}",
                    dataset.kind.name()
                );
                let e = engine(2, pivots);
                if pivots > 0 {
                    e.sync_sharded_pivots(&mut sharded);
                    assert!(sharded.pivots_ready(pivots), "{ctx}: shards synced");
                }
                let got = e.self_join(&sharded, tau as f64).expect("valid join");
                assert_join(&got, &want, total, &ctx);
            }
        }
    }
}

#[test]
fn cross_join_matches_nested_loop_oracle() {
    let left = aids_store(20, 9011).into_store();
    let right = aids_store(25, 9012).into_store();
    let total = left.len() * right.len();
    for tau in TAUS {
        let oracle = brute_join(&left, &right, tau);
        for threads in [1, 4] {
            for pivots in [0, 3] {
                let ctx = format!("cross/tau={tau}/threads={threads}/pivots={pivots}");
                let e = engine(threads, pivots);
                let got = e.join(&left, &right, tau as f64).expect("valid join");
                assert_join(&got, &oracle, total, &ctx);

                // The flat query batch against a sharded corpus answers
                // identically, modulo the copy's fresh ids.
                let (mut sharded, map) = sharded_copy(&right, 4);
                if pivots > 0 {
                    e.sync_sharded_pivots(&mut sharded);
                }
                let shrd = e
                    .join(&left, &sharded, tau as f64)
                    .expect("valid sharded join");
                assert_join(
                    &shrd,
                    &translate_right(&oracle, &map),
                    total,
                    &format!("{ctx}/sharded"),
                );
            }
        }
    }
}

#[test]
fn join_of_a_store_with_itself_covers_the_full_ordered_product() {
    // `join(s, s)` is the ordered product: all n·m pairs including the
    // zero-distance diagonal — unlike the self-join, which dedups to
    // unordered pairs. Symmetric duplicates canonicalize to one
    // representative and share its verification.
    let store = aids_store(12, 9021).into_store();
    let n = store.len();
    let tau = 1;
    let oracle = brute_join(&store, &store, tau);
    assert!(
        oracle.len() >= n,
        "the diagonal alone contributes {n} zero-distance matches"
    );
    let e = engine(2, 0);
    let got = e.join(&store, &store, tau as f64).expect("valid join");
    assert_join(&got, &oracle, n * n, "self-product");
    assert!(
        got.stats.cache_hits > 0,
        "symmetric (a, b)/(b, a) duplicates must verify once:\n{}",
        got.stats
    );
}

#[test]
fn duplicate_graphs_verify_once_and_all_match_at_tau_zero() {
    // τ = 0 joins exactly the isomorphism classes the store holds; a
    // store with duplicated graphs exercises the dedup tier.
    let base: Vec<Graph> = aids_store(4, 9031).graphs().cloned().collect();
    let mut graphs = base.clone();
    graphs.extend(base);
    let store = GraphStore::from_graphs(graphs);
    let n = store.len();
    let oracle = brute_self_join(&store, 0);
    assert_eq!(oracle.len(), 4, "each duplicated graph pairs with its copy");
    assert!(
        oracle.iter().all(|p| p.ged == 0),
        "τ = 0 matches are exact copies"
    );

    let e = engine(1, 0);
    let got = e.self_join(&store, 0.0).expect("valid join");
    assert_join(&got, &oracle, n * (n - 1) / 2, "duplicates/tau=0");
}

#[test]
fn infinite_tau_degrades_to_the_full_join_with_exact_distances() {
    let store = aids_store(8, 9041).into_store();
    let n = store.len();
    let oracle = brute_self_join(&store, usize::MAX);
    assert_eq!(
        oracle.len(),
        n * (n - 1) / 2,
        "τ = +∞ keeps every pair, each with its exact distance"
    );
    for pivots in [0, 3] {
        let e = engine(2, pivots);
        let got = e.self_join(&store, f64::INFINITY).expect("valid join");
        assert_join(
            &got,
            &oracle,
            n * (n - 1) / 2,
            &format!("inf/pivots={pivots}"),
        );
    }
}

#[test]
fn join_rejects_nan_and_matches_nothing_below_zero() {
    let store = aids_store(6, 9051).into_store();
    let other = aids_store(5, 9052).into_store();
    let e = engine(1, 0);

    assert!(
        matches!(e.self_join(&store, f64::NAN), Err(GedError::Config(_))),
        "NaN τ is a configuration error, not an empty answer"
    );
    assert!(matches!(
        e.join(&store, &other, f64::NAN),
        Err(GedError::Config(_))
    ));

    // Negative τ: a valid query that provably matches nothing — every
    // pair is accounted at the filter tier without any work.
    let got = e.self_join(&store, -1.0).expect("negative τ is valid");
    assert!(got.pairs.is_empty(), "nothing can have GED below zero");
    assert!(got.budget_exhausted.is_empty());
    let total = store.len() * (store.len() - 1) / 2;
    assert_eq!(
        got.stats.filtered, total,
        "all pairs filtered arithmetically"
    );
    assert_eq!(got.stats.total(), total, "accounting still closes");
    assert_eq!(got.stats.verified, 0, "no verification ran");

    let cross = e.join(&store, &other, -0.5).expect("negative τ is valid");
    assert!(cross.pairs.is_empty());
    assert_eq!(cross.stats.filtered, store.len() * other.len());
}

#[test]
fn empty_and_single_graph_stores() {
    let e = engine(1, 0);
    let empty = GraphStore::new();
    assert!(
        matches!(e.self_join(&empty, 2.0), Err(GedError::EmptyStore)),
        "joins follow the store-query convention: empty stores are errors"
    );
    let one = aids_store(1, 9061).into_store();
    assert!(matches!(
        e.join(&one, &empty, 2.0),
        Err(GedError::EmptyStore)
    ));
    assert!(matches!(
        e.join(&empty, &one, 2.0),
        Err(GedError::EmptyStore)
    ));

    // A single-graph store has zero unordered pairs — an empty answer,
    // not an error.
    let got = e.self_join(&one, 2.0).expect("one graph is a valid store");
    assert!(got.pairs.is_empty());
    assert_eq!(got.stats.total(), 0, "zero candidate pairs, zero tiers");
}

#[test]
fn stats_close_and_matches_stay_sound_under_a_strangled_budget() {
    let store = aids_store(30, 9071).into_store();
    let n = store.len();
    let total = n * (n - 1) / 2;
    let tau = 2;
    let oracle = brute_self_join(&store, tau);
    let oracle_ids: Vec<(GraphId, GraphId)> = oracle.iter().map(|p| (p.a, p.b)).collect();

    for budget in [1, 16, 256] {
        for pivots in [0, 3] {
            let ctx = format!("budget={budget}/pivots={pivots}");
            let e = engine_builder(&[MethodKind::Gedgw])
                .threads(2)
                .pivots(pivots)
                .verify_budget(budget)
                .build()
                .expect("valid configuration");
            let got = e.self_join(&store, tau as f64).expect("valid join");

            // Accounting closes whatever the budget strangles.
            assert_eq!(
                got.stats.total(),
                total,
                "{ctx}: accounting closes under budget pressure\n{}",
                got.stats
            );
            assert_eq!(
                got.budget_exhausted.len(),
                got.stats.budget_exceeded,
                "{ctx}: undecided pairs and their tier count agree"
            );

            // Reported matches are sound and exact: a subset of the
            // oracle, never a wrong distance.
            for p in &got.pairs {
                assert!(
                    oracle.contains(p),
                    "{ctx}: reported match {p:?} must appear in the oracle"
                );
            }
            // Nothing vanishes: every oracle match is either reported
            // or surfaced as undecided.
            let undecided: Vec<(GraphId, GraphId)> =
                got.budget_exhausted.iter().map(|u| (u.a, u.b)).collect();
            for &(a, b) in &oracle_ids {
                assert!(
                    got.pairs.iter().any(|p| (p.a, p.b) == (a, b)) || undecided.contains(&(a, b)),
                    "{ctx}: oracle match ({a:?}, {b:?}) neither reported nor undecided"
                );
            }
            // A proven-membership undecided pair carries its evidence.
            for u in &got.budget_exhausted {
                if let Some(ub) = u.known_match_ub {
                    assert!(ub <= tau, "{ctx}: membership certificate within τ");
                }
            }
        }
    }
}

#[test]
fn a_zero_deadline_aborts_the_join_mid_execution() {
    let store = aids_store(40, 9081).into_store();
    let e = engine(2, 0);
    // Sanity: the same join succeeds without a deadline.
    assert!(e.self_join(&store, 2.0).is_ok());
    let expired = QueryOpts {
        deadline: Deadline::within(Duration::ZERO),
        ..QueryOpts::default()
    };
    let other = aids_store(10, 9082).into_store();
    let (store, other) = (StoreRef::from(&store), StoreRef::from(&other));
    let tau = 2.0;
    assert!(
        matches!(
            e.query_with(GedQuery::SelfJoin { store, tau }, expired),
            Err(GedError::DeadlineExceeded)
        ),
        "an already-expired deadline must abort before the answer"
    );
    let join = GedQuery::Join { store, other, tau };
    assert!(matches!(
        e.query_with(join, expired),
        Err(GedError::DeadlineExceeded)
    ));
    // `Deadline::NONE` through the same request form never expires.
    let none = QueryOpts {
        deadline: Deadline::NONE,
        ..QueryOpts::default()
    };
    assert!(e
        .query_with(GedQuery::SelfJoin { store, tau: 1.0 }, none)
        .is_ok());
}
