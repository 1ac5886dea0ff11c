//! The τ-bounded exact search against oracles that never call it.
//!
//! Every other exact oracle in the workspace (the testkit's brute-force
//! range and join answers, the pivot tables) runs `bounded_exact_ged`
//! itself, so an unsound search bound would pass them all. This suite
//! checks the search from outside:
//!
//! * answers: `bounded_exact_ged{,_with_budget,_with_budget_in}` against
//!   `ged_baselines::astar::astar_exact` and a brute-force enumeration of
//!   every edit path's node map (deletions included), on AIDS-, LINUX-
//!   and IMDB-like pairs of at most 8 nodes and hand-picked corner
//!   cases, at τ ∈ {0, 1, 2, 3, 4, ∞}, in both argument orders, through a
//!   workspace left dirty by every earlier call; capped budgets may only
//!   give up, never answer wrongly, and the store plans' per-candidate
//!   unit `prune_or_verify_in` reaches the search's verdict at every
//!   threshold and budget;
//! * the bound: at random partial mappings, `completion_lower_bound` is
//!   at most the cost of the cheapest completion (admissible), equals it
//!   once every node of the smaller graph is mapped (tight), and equals
//!   the branch bound at the empty mapping.

use ged_testkit::{aids_store, linux_store, rng};
use ot_ged::core::lower_bound::{branch_lower_bound, completion_lower_bound};
use ot_ged::core::search::{
    bounded_exact_ged_with_budget_in, prune_or_verify_in, CandidateOutcome,
};
use ot_ged::core::GedWorkspace;
use ot_ged::prelude::*;
use rand::seq::SliceRandom;
use rand::Rng;

/// The thresholds every pair is searched at (`usize::MAX` is τ = ∞).
const TAUS: [usize; 6] = [0, 1, 2, 3, 4, usize::MAX];

/// What deciding `g1`'s node `u = map.len()` adds to an edit path under
/// uniform costs: substituting it by `g2`'s node `v` (`Some(v)`) costs a
/// relabel if the labels differ, deleting it (`None`) costs 1; an edge to
/// an earlier node costs 1 unless both ends are substituted and `g2` has
/// the image edge.
fn step_cost(g1: &Graph, g2: &Graph, map: &[Option<u32>], m: Option<u32>) -> usize {
    let u = map.len() as u32;
    let mut cost = match m {
        Some(v) => usize::from(g1.label(u) != g2.label(v)),
        None => 1,
    };
    for (w, &mw) in map.iter().enumerate() {
        let e1 = g1.has_edge(u, w as u32);
        cost += match (m, mw) {
            (Some(v), Some(x)) => usize::from(e1 != g2.has_edge(v, x)),
            _ => usize::from(e1),
        };
    }
    cost
}

/// The cheapest edit path whose node map extends `prefix` (`g1`'s first
/// `prefix.len()` nodes substituted as given), by depth-first enumeration
/// of every remaining map: each further node is substituted by an unused
/// `g2` node, or, when `deletions` is set, deleted; the unused `g2` nodes
/// and every `g2` edge touching one are inserted. Returns the total
/// cost, prefix included. Branches whose cost so far already reaches the
/// best complete path are cut (costs only grow along a branch).
fn cheapest_completion(g1: &Graph, g2: &Graph, prefix: &[u32], deletions: bool) -> usize {
    struct Walk<'a> {
        g1: &'a Graph,
        g2: &'a Graph,
        map: Vec<Option<u32>>,
        used: Vec<bool>,
        deletions: bool,
        best: usize,
    }
    fn walk(s: &mut Walk<'_>, cost: usize) {
        if cost >= s.best {
            return;
        }
        if s.map.len() == s.g1.num_nodes() {
            let inserted = s.used.iter().filter(|&&u| !u).count();
            let dangling = (s.g2.edges())
                .filter(|&(x, y)| !s.used[x as usize] || !s.used[y as usize])
                .count();
            s.best = s.best.min(cost + inserted + dangling);
            return;
        }
        let choices = (0..s.g2.num_nodes() as u32).map(Some);
        for m in choices.chain(s.deletions.then_some(None)) {
            if m.is_some_and(|v| s.used[v as usize]) {
                continue;
            }
            let step = step_cost(s.g1, s.g2, &s.map, m);
            if let Some(v) = m {
                s.used[v as usize] = true;
            }
            s.map.push(m);
            walk(s, cost + step);
            s.map.pop();
            if let Some(v) = m {
                s.used[v as usize] = false;
            }
        }
    }
    let mut s = Walk {
        g1,
        g2,
        map: Vec::new(),
        used: vec![false; g2.num_nodes()],
        deletions,
        best: usize::MAX,
    };
    let incurred = prefix_cost(g1, g2, prefix);
    for &v in prefix {
        s.map.push(Some(v));
        s.used[v as usize] = true;
    }
    walk(&mut s, incurred);
    s.best
}

/// The cost a partial mapping of `g1`'s first nodes has already incurred:
/// its relabels and the edge mismatches among mapped nodes.
fn prefix_cost(g1: &Graph, g2: &Graph, prefix: &[u32]) -> usize {
    let mut map = Vec::new();
    let mut cost = 0;
    for &v in prefix {
        cost += step_cost(g1, g2, &map, Some(v));
        map.push(Some(v));
    }
    cost
}

/// Exact GED by brute force over every edit path's node map.
fn brute_ged(g1: &Graph, g2: &Graph) -> usize {
    cheapest_completion(g1, g2, &[], true)
}

/// Pairs of consecutive graphs with at most `max_nodes` nodes each.
fn pairs_of(graphs: Vec<Graph>, max_nodes: usize, limit: usize) -> Vec<(Graph, Graph)> {
    let small: Vec<Graph> = graphs
        .into_iter()
        .filter(|g| g.num_nodes() <= max_nodes)
        .collect();
    small
        .chunks_exact(2)
        .take(limit)
        .map(|c| (c[0].clone(), c[1].clone()))
        .collect()
}

/// AIDS-, LINUX- and IMDB-like pairs of at most `max_nodes` nodes, plus
/// hand-picked corner cases: identical, edgeless, single-node, equal-size
/// and `n1 < n2` pairs.
fn pairs(max_nodes: usize, per_family: usize) -> Vec<(Graph, Graph)> {
    let graphs = |ds: GraphDataset| ds.graphs().cloned().collect::<Vec<_>>();
    let mut out = pairs_of(graphs(aids_store(80, 41)), max_nodes, per_family);
    out.extend(pairs_of(graphs(linux_store(80, 42)), max_nodes, per_family));
    out.extend(pairs_of(
        graphs(GraphDataset::imdb_like(120, 12, &mut rng(43))),
        max_nodes,
        per_family,
    ));
    let l = |ls: &[u32]| ls.iter().map(|&x| Label(x)).collect::<Vec<_>>();
    let path = Graph::from_edges(l(&[1, 2, 1, 3]), &[(0, 1), (1, 2), (2, 3)]);
    let star = Graph::from_edges(l(&[1, 1, 1, 1]), &[(0, 1), (0, 2), (0, 3)]);
    let edgeless = Graph::from_edges(l(&[2, 2, 4, 1, 1]), &[]);
    let single = Graph::from_edges(l(&[7]), &[]);
    let triangle = Graph::from_edges(l(&[1, 1, 2]), &[(0, 1), (1, 2), (0, 2)]);
    let k4 = Graph::from_edges(
        l(&[1, 1, 1, 1]),
        &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
    );
    out.extend([
        (path.clone(), path.clone()),
        (path.clone(), star.clone()),
        (edgeless.clone(), star.clone()),
        (single.clone(), single.clone()),
        (single.clone(), triangle.clone()),
        (triangle.clone(), k4.clone()),
        (single, k4),
        (edgeless, triangle),
    ]);
    out
}

/// What a decided search must answer for a pair at exact distance `d`.
fn expected(d: usize, tau: usize) -> BoundedSearch {
    if d <= tau {
        BoundedSearch::Within(d)
    } else {
        BoundedSearch::Exceeds
    }
}

#[test]
fn exact_search_equals_astar_and_brute_force_at_every_threshold() {
    let mut dirty = GedWorkspace::new();
    let mut checked = 0;
    for (a, b) in pairs(8, 6) {
        let d = brute_ged(&a, &b);
        assert_eq!(astar_exact(&a, &b).ged, d, "A* baseline on {a:?} / {b:?}");
        assert_eq!(astar_exact(&b, &a).ged, d, "A* baseline on {b:?} / {a:?}");
        for (x, y) in [(&a, &b), (&b, &a)] {
            for tau in TAUS {
                let want = expected(d, tau);
                let ctx = format!("τ = {tau}, d = {d}: {x:?} / {y:?}");
                assert_eq!(
                    bounded_exact_ged(x, y, tau),
                    (d <= tau).then_some(d),
                    "{ctx}"
                );
                assert_eq!(
                    bounded_exact_ged_with_budget(x, y, tau, usize::MAX),
                    want,
                    "{ctx}"
                );
                assert_eq!(
                    bounded_exact_ged_with_budget_in(x, y, tau, usize::MAX, &mut dirty),
                    want,
                    "dirty workspace, {ctx}"
                );
                checked += 1;
            }
        }
    }
    assert!(
        checked >= 6 * 2 * (3 * 5 + 8),
        "every family contributes pairs"
    );
}

#[test]
fn capped_budgets_never_decide_wrongly() {
    let mut dirty = GedWorkspace::new();
    for (a, b) in pairs(7, 4) {
        let d = brute_ged(&a, &b);
        for (x, y) in [(&a, &b), (&b, &a)] {
            for tau in TAUS {
                for budget in [0, 1, 2, 5, 20] {
                    let got = bounded_exact_ged_with_budget_in(x, y, tau, budget, &mut dirty);
                    assert!(
                        got == expected(d, tau) || got == BoundedSearch::BudgetExhausted,
                        "budget {budget}, τ = {tau}, d = {d}: got {got:?} for {x:?} / {y:?}"
                    );
                    assert_eq!(got, bounded_exact_ged_with_budget(x, y, tau, budget));
                    // The store plans' unit shares the search's root and
                    // budget accounting, so it reaches the same verdict.
                    let unit = match prune_or_verify_in(x, y, tau, budget, &mut dirty) {
                        CandidateOutcome::Verified { ged } => BoundedSearch::Within(ged),
                        CandidateOutcome::PrunedByBranch | CandidateOutcome::Rejected => {
                            BoundedSearch::Exceeds
                        }
                        CandidateOutcome::BudgetExhausted { accepted_ub: None } => {
                            BoundedSearch::BudgetExhausted
                        }
                        other => panic!("no pivot certificate was given, got {other:?}"),
                    };
                    assert_eq!(unit, got, "budget {budget}, τ = {tau}: {x:?} / {y:?}");
                }
            }
        }
    }
}

#[test]
fn completion_bound_is_admissible_and_tight_at_random_partial_mappings() {
    let mut rng = rng(44);
    for (a, b) in pairs(7, 5) {
        let (g1, g2) = if a.num_nodes() <= b.num_nodes() {
            (a, b)
        } else {
            (b, a)
        };
        let (n1, n2) = (g1.num_nodes(), g2.num_nodes());
        assert_eq!(
            completion_lower_bound(&g1, &g2, &[]).to_bits(),
            branch_lower_bound(&g1, &g2).to_bits(),
            "the empty mapping's bound is the branch bound"
        );
        let mut nodes: Vec<u32> = (0..n2 as u32).collect();
        for depth in 0..=n1 {
            for _ in 0..3 {
                nodes.shuffle(&mut rng);
                let prefix = &nodes[..depth];
                let bound = completion_lower_bound(&g1, &g2, prefix);
                assert_eq!(bound * 2.0, (bound * 2.0).round(), "a multiple of ½");
                let incurred = prefix_cost(&g1, &g2, prefix);
                let best = cheapest_completion(&g1, &g2, prefix, rng.gen_bool(0.5));
                let ctx = format!("prefix {prefix:?} of {g1:?} / {g2:?}");
                assert!(
                    incurred as f64 + bound <= best as f64,
                    "inadmissible: {incurred} + {bound} > {best}, {ctx}"
                );
                if depth == n1 {
                    assert_eq!(incurred as f64 + bound, best as f64, "not tight, {ctx}");
                }
            }
        }
    }
}
