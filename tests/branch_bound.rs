//! The branch bound on GEDGW's objective and the plan tier built on it.
//!
//! * soundness: on AIDS-, LINUX- and IMDB-like pairs of at most 8 nodes
//!   (and hand-picked edge cases) the bound is at most the exact GED, at
//!   most GEDGW's estimate plus `branch_slack`, at most GEDGW's objective
//!   at its uniform start, and symmetric in its arguments;
//! * plans: `TopK` and `Range` with the tier equal the brute-force
//!   oracles bit for bit (flat and sharded, 1 and 4 threads, with and
//!   without pivots), their stats do not depend on the thread count, and
//!   the tier only moves candidates from `verified` to `pruned_branch`;
//! * only solvers that declare `respects_branch_bound` prune through it.

use ged_testkit::{
    aids_store, assert_same_neighbors as assert_same, brute_force_refined,
    brute_force_refined_sharded, counting_engine_builder, engine_builder, external_query,
    linux_store, rng, sharded_copy,
};
use ot_ged::core::lower_bound::{branch_lower_bound, branch_lower_bound_in, branch_slack};
use ot_ged::core::solver::GediotSolver;
use ot_ged::core::GedWorkspace;
use ot_ged::prelude::*;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Pairs of consecutive dataset graphs with at most 8 nodes each.
fn small_pairs(ds: &GraphDataset, limit: usize) -> Vec<(Graph, Graph)> {
    let small: Vec<Graph> = ds
        .graphs()
        .filter(|g| g.num_nodes() <= 8)
        .cloned()
        .collect();
    small
        .chunks_exact(2)
        .take(limit)
        .map(|c| (c[0].clone(), c[1].clone()))
        .collect()
}

/// Hand-picked corner cases: identical, edgeless, single-node, equal-size
/// and `n1 < n2` pairs.
fn edge_cases() -> Vec<(Graph, Graph)> {
    let l = |ls: &[u32]| ls.iter().map(|&x| Label(x)).collect::<Vec<_>>();
    let path = Graph::from_edges(l(&[1, 2, 1, 3]), &[(0, 1), (1, 2), (2, 3)]);
    let star = Graph::from_edges(l(&[1, 1, 1, 1]), &[(0, 1), (0, 2), (0, 3)]);
    let edgeless3 = Graph::from_edges(l(&[1, 2, 2]), &[]);
    let edgeless5 = Graph::from_edges(l(&[2, 2, 4, 1, 1]), &[]);
    let single = Graph::from_edges(l(&[7]), &[]);
    let triangle = Graph::from_edges(l(&[1, 1, 2]), &[(0, 1), (1, 2), (0, 2)]);
    let tailed = Graph::from_edges(l(&[1, 1, 3, 4]), &[(0, 1), (0, 2), (2, 3)]);
    vec![
        (path.clone(), path.clone()),
        (star.clone(), star.clone()),
        (path.clone(), star.clone()),
        (edgeless3.clone(), edgeless5.clone()),
        (edgeless5, star.clone()),
        (single.clone(), single.clone()),
        (single.clone(), triangle.clone()),
        (edgeless3, single),
        (triangle.clone(), tailed.clone()),
        (tailed, star),
        (triangle, path),
    ]
}

/// Every pair the soundness properties sweep.
fn sound_pairs() -> Vec<(&'static str, Graph, Graph)> {
    let mut r = rng(0xB2A4C);
    let mut out = Vec::new();
    for (tag, ds) in [
        ("AIDS", GraphDataset::aids_like(80, &mut r)),
        ("LINUX", GraphDataset::linux_like(80, &mut r)),
        ("IMDB", GraphDataset::imdb_like(80, 12, &mut r)),
    ] {
        out.extend(small_pairs(&ds, 20).into_iter().map(|(a, b)| (tag, a, b)));
    }
    out.extend(edge_cases().into_iter().map(|(a, b)| ("edge", a, b)));
    out
}

/// GEDGW's objective at the uniform start `1/n` of its padded pair.
fn objective_at_uniform_start(g1: &Graph, g2: &Graph) -> f64 {
    let solver = Gedgw::new(g1, g2);
    let n = solver.graphs().1.num_nodes();
    solver.objective_at(&ot_ged::linalg::Matrix::filled(n, n, 1.0 / n as f64))
}

#[test]
fn branch_bound_is_sound_for_ged_and_for_gedgw() {
    let pairs = sound_pairs();
    assert!(pairs.len() > 50, "the sweep has {} pairs", pairs.len());
    let mut ws = GedWorkspace::new();
    let mut tight = 0;
    for (i, (tag, a, b)) in pairs.iter().enumerate() {
        let ctx = format!(
            "{tag} pair {i} ({} vs {} nodes)",
            a.num_nodes(),
            b.num_nodes()
        );
        let branch = branch_lower_bound(a, b);
        let slack = branch_slack(a, b);
        assert!(branch >= 0.0 && slack >= 0.0, "{ctx}");
        assert_eq!(
            branch.to_bits(),
            branch_lower_bound(b, a).to_bits(),
            "{ctx}: symmetric"
        );
        assert_eq!(
            branch.to_bits(),
            branch_lower_bound_in(a, b, &mut ws).to_bits(),
            "{ctx}: a dirty workspace gives the same value"
        );
        let exact = astar_exact(a, b).ged as f64;
        assert!(
            branch <= exact,
            "{ctx}: branch {branch} > exact GED {exact}"
        );
        let estimate = Gedgw::new(a, b).solve().ged;
        assert!(
            branch <= estimate + slack,
            "{ctx}: branch {branch} > GEDGW estimate {estimate} + {slack}"
        );
        let start = objective_at_uniform_start(a, b);
        assert!(
            branch <= start + slack,
            "{ctx}: branch {branch} > objective at the uniform start {start}"
        );
        if a == b {
            assert_eq!(branch, 0.0, "{ctx}: identical graphs");
        }
        tight += usize::from(branch == exact);
    }
    // Not a property, a sanity check that the bound is not vacuous.
    assert!(tight > pairs.len() / 4, "tight on only {tight} pairs");
}

/// The graphs a plan stores, with the queries a suite sends: a member
/// (close neighbors exist) and a foreign graph.
fn queries(store: &GraphStore, seed: u64) -> [Graph; 2] {
    [
        store.graphs().next().expect("non-empty").clone(),
        external_query(seed),
    ]
}

#[test]
fn plans_with_the_branch_tier_equal_the_oracles_at_any_thread_count() {
    let mut fired = 0;
    for (store, tag) in [
        (aids_store(60, 0xB0A1), "AIDS"),
        (linux_store(40, 0xB0A2), "LINUX"),
    ] {
        let store = store.into_store();
        let (sharded, _) = sharded_copy(&store, 4);
        for pivots in [0, 3] {
            let engines: Vec<GedEngine> = [1, 4]
                .into_iter()
                .map(|t| {
                    engine_builder(&[MethodKind::Gedgw])
                        .threads(t)
                        .pivots(pivots)
                        .build()
                        .expect("valid configuration")
                })
                .collect();
            let mut sharded = sharded.clone();
            engines[0].sync_sharded_pivots(&mut sharded);
            for (qi, query) in queries(&store, 0xB0A3).iter().enumerate() {
                let flat_bounds = engines[0].pivot_bounds(query, &store);
                let shard_bounds = engines[0].sharded_pivot_bounds(query, &sharded);
                let flat = brute_force_refined(&store, query, &GedgwSolver, flat_bounds.as_ref());
                let shrd = brute_force_refined_sharded(
                    &sharded,
                    query,
                    &GedgwSolver,
                    shard_bounds.as_ref(),
                );
                for k in [1usize, 5, 13] {
                    let ctx = format!("{tag}/pivots={pivots}/q{qi}/k={k}");
                    let got: Vec<_> = engines
                        .iter()
                        .map(|e| {
                            let f = e.top_k(query, &store, k).expect("top-k");
                            let s = e.top_k(query, &sharded, k).expect("top-k");
                            assert_same(&f.neighbors, &flat[..k], &format!("{ctx}/flat"));
                            assert_same(&s.neighbors, &shrd[..k], &format!("{ctx}/sharded"));
                            (f.stats, s.stats)
                        })
                        .collect();
                    assert_eq!(got[0], got[1], "{ctx}: stats at 1 and 4 threads");
                    for st in [got[0].0, got[0].1] {
                        assert_eq!(st.pruned() + st.verified, st.candidates, "{ctx}");
                        fired += st.pruned_branch;
                    }
                }
                for tau in [flat[2].ged, flat[flat.len() / 4].ged] {
                    let ctx = format!("{tag}/pivots={pivots}/q{qi}/tau={tau}");
                    let want: Vec<_> = flat.iter().copied().filter(|n| n.ged <= tau).collect();
                    let want_s: Vec<_> = shrd.iter().copied().filter(|n| n.ged <= tau).collect();
                    let got: Vec<_> = engines
                        .iter()
                        .map(|e| {
                            let f = e.range(query, &store, tau).expect("range");
                            let s = e.range(query, &sharded, tau).expect("range");
                            assert_same(&f.neighbors, &want, &format!("{ctx}/flat"));
                            assert_same(&s.neighbors, &want_s, &format!("{ctx}/sharded"));
                            (f.stats, s.stats)
                        })
                        .collect();
                    assert_eq!(got[0], got[1], "{ctx}: stats at 1 and 4 threads");
                    for st in [got[0].0, got[0].1] {
                        assert_eq!(st.pruned() + st.verified, st.candidates, "{ctx}");
                        fired += st.pruned_branch;
                    }
                }
            }
        }
    }
    assert!(fired > 0, "the branch tier never fired");
}

#[test]
fn the_branch_tier_only_moves_candidates_from_verified_to_pruned() {
    // The counting solver is GEDGW without the declaration: same values,
    // no branch tier. A pruned candidate could never have changed the
    // k-th best, so every other tier and the answers stay the same.
    let store = aids_store(60, 0xB0B1).into_store();
    let with = engine_builder(&[MethodKind::Gedgw]).build().expect("valid");
    let (builder, calls) = counting_engine_builder();
    let without = builder.build().expect("valid");
    let mut pruned = 0;
    for (qi, query) in queries(&store, 0xB0B2).iter().enumerate() {
        let mut check = |ctx: String, a: SearchResult, b: SearchResult| {
            assert_same(&a.neighbors, &b.neighbors, &ctx);
            assert_eq!(b.stats.pruned_branch, 0, "{ctx}: undeclared solver");
            let moved = SearchStats {
                verified: a.stats.verified + a.stats.pruned_branch,
                pruned_branch: 0,
                ..a.stats
            };
            assert_eq!(moved, b.stats, "{ctx}");
            pruned += a.stats.pruned_branch;
        };
        for k in [1usize, 5, 13] {
            let a = with.top_k(query, &store, k).expect("top-k");
            let before = calls.load(Ordering::Relaxed);
            let b = without.top_k(query, &store, k).expect("top-k");
            assert_eq!(calls.load(Ordering::Relaxed) - before, b.stats.verified);
            check(format!("q{qi}/k={k}"), a, b);
        }
        let tau = with.top_k(query, &store, 8).expect("top-k").neighbors[7].ged;
        let a = with.range(query, &store, tau).expect("range");
        let b = without.range(query, &store, tau).expect("range");
        check(format!("q{qi}/tau={tau}"), a, b);
    }
    assert!(pruned > 0, "the branch tier never fired on the AIDS store");
}

#[test]
fn gediot_never_prunes_through_the_branch_tier() {
    let model = Arc::new(Gediot::new(GediotConfig::small(29), &mut rng(0xB0C1)));
    let mut registry = SolverRegistry::new();
    registry.register(
        MethodKind::Gediot,
        Box::new(GediotSolver::new(Arc::clone(&model))),
    );
    let engine = GedEngine::builder(registry)
        .method(MethodKind::Gediot)
        .build()
        .expect("GEDIOT is registered");
    let store = aids_store(40, 0xB0C2).into_store();
    let solver = GediotSolver::new(model);
    assert!(!solver.respects_branch_bound());
    assert!(GedgwSolver.respects_branch_bound());
    for query in &queries(&store, 0xB0C3) {
        let brute = brute_force_refined(&store, query, &solver, None);
        let top = engine.top_k(query, &store, 5).expect("top-k");
        assert_same(&top.neighbors, &brute[..5], "GEDIOT top-k");
        assert_eq!(top.stats.pruned_branch, 0);
        let tau = brute[6].ged;
        let range = engine.range(query, &store, tau).expect("range");
        assert_eq!(range.stats.pruned_branch, 0);
    }
}
