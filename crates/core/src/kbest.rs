//! GEP generation via the k-best matching framework (Section 4.5,
//! Algorithm 4 of the paper; space splitting after Chegireddy & Hamacher).
//!
//! Given a coupling matrix `π` (matching confidences from GEDIOT or GEDGW),
//! the node-matching space is recursively partitioned into subspaces defined
//! by forced/forbidden pairs. Each subspace keeps its best and second-best
//! matching by `⟨π, M⟩` weight; at every step the subspace with the heaviest
//! second-best matching is split further. All `2k` collected matchings are
//! realized as edit paths via `EPGen`, and the shortest one wins. Subspaces
//! whose GED lower bound already meets the incumbent path length are pruned.

use crate::lower_bound::partial_matching_lower_bound;
use ged_graph::{EditPath, Graph, NodeMapping};
use ged_linalg::{
    best_matching_in, second_best_matching_in, Assignment, MatchingWorkspace, Matrix,
};

/// Result of k-best edit-path generation.
#[derive(Clone, Debug)]
pub struct KBestResult {
    /// The best (shortest) edit path found.
    pub path: EditPath,
    /// The node matching that realizes it.
    pub mapping: NodeMapping,
    /// Its length — a feasible (upper-bound) GED estimate.
    pub ged: usize,
    /// Number of candidate matchings evaluated.
    pub candidates: usize,
}

struct Subspace {
    forced: Vec<(usize, usize)>,
    forbidden: Vec<(usize, usize)>,
    best: Assignment,
    second: Option<Assignment>,
    lower_bound: usize,
}

fn mapping_of(a: &Assignment) -> NodeMapping {
    NodeMapping::new(a.row_to_col.iter().map(|&c| c as u32).collect())
}

/// Generates an edit path for `(g1, g2)` from coupling `pi` by exploring up
/// to `k` subspaces of the matching space.
///
/// One generation issues `O(k · n)` constrained LSAP solves; this wrapper
/// reuses one [`MatchingWorkspace`] across all of them (see
/// [`kbest_edit_path_in`] for reuse across generations).
///
/// # Panics
/// Panics if `g1` has more nodes than `g2` or `pi` is not `n1 x n2`.
#[must_use]
pub fn kbest_edit_path(g1: &Graph, g2: &Graph, pi: &Matrix, k: usize) -> KBestResult {
    kbest_edit_path_in(g1, g2, pi, k, &mut MatchingWorkspace::new())
}

/// [`kbest_edit_path`] with the matching-layer scratch drawn from `ws`.
/// The subspace exploration (split choices, candidate order, pruning) is
/// identical, so results are bit-identical for any (possibly dirty)
/// workspace.
///
/// # Panics
/// Panics if `g1` has more nodes than `g2` or `pi` is not `n1 x n2`.
#[must_use]
pub fn kbest_edit_path_in(
    g1: &Graph,
    g2: &Graph,
    pi: &Matrix,
    k: usize,
    ws: &mut MatchingWorkspace,
) -> KBestResult {
    let n1 = g1.num_nodes();
    let n2 = g2.num_nodes();
    assert!(n1 <= n2, "kbest_edit_path requires n1 <= n2");
    assert_eq!(pi.shape(), (n1, n2), "coupling shape mismatch");
    assert!(k >= 1, "k must be at least 1");

    let mut candidates = 0usize;
    let mut best_len = usize::MAX;
    let mut best_pair: Option<(EditPath, NodeMapping)> = None;

    let consider = |assignment: &Assignment,
                    candidates: &mut usize,
                    best_len: &mut usize,
                    best_pair: &mut Option<(EditPath, NodeMapping)>| {
        *candidates += 1;
        let mapping = mapping_of(assignment);
        let cost = mapping.induced_cost(g1, g2);
        if cost < *best_len {
            let path = mapping.edit_path(g1, g2);
            debug_assert_eq!(path.len(), cost);
            *best_len = cost;
            *best_pair = Some((path, mapping));
        }
    };

    // Initial subspace: the whole matching space.
    let m1 = best_matching_in(pi, &[], &[], ws).expect("full matching space is non-empty");
    consider(&m1, &mut candidates, &mut best_len, &mut best_pair);
    let global_lb = partial_matching_lower_bound(g1, g2, &[]);
    if k == 1 || best_len <= global_lb {
        // No splitting requested, or the incumbent already matches the GED
        // lower bound — no further candidate can improve it. Skipping the
        // (second-best) search here keeps k-best usable on the 400-node
        // power-law graphs of Figure 16, where second-best is the
        // dominating cost.
        let (path, mapping) = best_pair.expect("one matching considered");
        return KBestResult {
            ged: path.len(),
            path,
            mapping,
            candidates,
        };
    }
    let m2 = second_best_matching_in(pi, &[], &[], &m1, ws);
    if let Some(ref m2a) = m2 {
        consider(m2a, &mut candidates, &mut best_len, &mut best_pair);
    }
    let mut subspaces = vec![Subspace {
        forced: Vec::new(),
        forbidden: Vec::new(),
        best: m1,
        second: m2,
        lower_bound: global_lb,
    }];

    for _ in 2..=k {
        // Pick the subspace with the heaviest second-best matching among
        // promising ones (LB < incumbent). The first eligible one is taken
        // outright, so a NaN weight cannot leave every subspace unchosen.
        let mut chosen: Option<usize> = None;
        let mut max_weight = f64::NEG_INFINITY;
        for (idx, s) in subspaces.iter().enumerate() {
            if s.lower_bound >= best_len {
                continue;
            }
            if let Some(ref second) = s.second {
                if chosen.is_none() || second.cost > max_weight {
                    max_weight = second.cost;
                    chosen = Some(idx);
                }
            }
        }
        let Some(idx) = chosen else { break };

        // Split on a pair present in best but not in second.
        let (e, second) = {
            let s = &subspaces[idx];
            let second = s.second.clone().expect("chosen subspace has a second");
            let mut split_edge = None;
            for (r, &c) in s.best.row_to_col.iter().enumerate() {
                if second.row_to_col[r] != c && !s.forced.contains(&(r, c)) {
                    split_edge = Some((r, c));
                    break;
                }
            }
            (
                split_edge.expect("distinct matchings differ on a free pair"),
                second,
            )
        };

        // Child S': forced += e, keeps the old best; fresh second-best.
        let mut forced_in = subspaces[idx].forced.clone();
        forced_in.push(e);
        let forbidden_in = subspaces[idx].forbidden.clone();
        let best_in = subspaces[idx].best.clone();
        let second_in = second_best_matching_in(pi, &forced_in, &forbidden_in, &best_in, ws);
        if let Some(ref s2) = second_in {
            consider(s2, &mut candidates, &mut best_len, &mut best_pair);
        }

        // Child S'': forbidden += e, old second becomes its best.
        let forced_out = subspaces[idx].forced.clone();
        let mut forbidden_out = subspaces[idx].forbidden.clone();
        forbidden_out.push(e);
        let best_out = second;
        let second_out = second_best_matching_in(pi, &forced_out, &forbidden_out, &best_out, ws);
        if let Some(ref s2) = second_out {
            consider(s2, &mut candidates, &mut best_len, &mut best_pair);
        }

        let lb_in = partial_matching_lower_bound(g1, g2, &forced_in);
        let lb_out = subspaces[idx].lower_bound;
        subspaces[idx] = Subspace {
            forced: forced_in,
            forbidden: forbidden_in,
            best: best_in,
            second: second_in,
            lower_bound: lb_in,
        };
        subspaces.push(Subspace {
            forced: forced_out,
            forbidden: forbidden_out,
            best: best_out,
            second: second_out,
            lower_bound: lb_out,
        });

        if best_len == 0 {
            break; // cannot improve further
        }
    }

    let (path, mapping) = best_pair.expect("at least one matching considered");
    KBestResult {
        ged: path.len(),
        path,
        mapping,
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_graph::isomorphism::are_isomorphic;
    use ged_graph::{Graph, Label};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn figure1() -> (Graph, Graph) {
        let g1 = Graph::from_edges(
            vec![Label(1), Label(1), Label(2)],
            &[(0, 1), (0, 2), (1, 2)],
        );
        let g2 = Graph::from_edges(
            vec![Label(1), Label(1), Label(3), Label(4)],
            &[(0, 1), (0, 2), (2, 3)],
        );
        (g1, g2)
    }

    /// Brute-force exact GED over all injective mappings (tiny graphs only).
    fn brute_ged(g1: &Graph, g2: &Graph) -> usize {
        fn rec(
            g1: &Graph,
            g2: &Graph,
            u: usize,
            used: &mut Vec<bool>,
            map: &mut Vec<u32>,
            best: &mut usize,
        ) {
            if u == g1.num_nodes() {
                let m = NodeMapping::new(map.clone());
                *best = (*best).min(m.induced_cost(g1, g2));
                return;
            }
            for v in 0..g2.num_nodes() {
                if !used[v] {
                    used[v] = true;
                    map.push(v as u32);
                    rec(g1, g2, u + 1, used, map, best);
                    map.pop();
                    used[v] = false;
                }
            }
        }
        let mut best = usize::MAX;
        rec(
            g1,
            g2,
            0,
            &mut vec![false; g2.num_nodes()],
            &mut Vec::new(),
            &mut best,
        );
        best
    }

    #[test]
    fn perfect_coupling_recovers_exact_path() {
        let (g1, g2) = figure1();
        // Ground-truth coupling: identity matching (GED 4).
        let pi = Matrix::from_vec(
            3,
            4,
            vec![1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
        );
        let res = kbest_edit_path(&g1, &g2, &pi, 5);
        assert_eq!(res.ged, 4);
        let out = res.path.apply(&g1).unwrap();
        assert!(are_isomorphic(&out, &g2));
    }

    #[test]
    fn noisy_coupling_still_finds_exact_with_enough_k() {
        let mut rng = SmallRng::seed_from_u64(17);
        for trial in 0..25 {
            let n1 = rng.gen_range(3..=5);
            let n2 = rng.gen_range(n1..=6);
            let g1 = ged_graph::generate::random_connected(n1, 1, &[0.5, 0.5], &mut rng);
            let g2 = ged_graph::generate::random_connected(n2, 1, &[0.5, 0.5], &mut rng);
            let exact = brute_ged(&g1, &g2);
            // Uninformative coupling: uniform + noise. With k large enough
            // relative to the tiny space, the search must reach the optimum.
            let pi = Matrix::from_fn(n1, n2, |_, _| 0.5 + rng.gen_range(-0.05..0.05));
            let res = kbest_edit_path(&g1, &g2, &pi, 200);
            assert!(res.ged >= exact, "trial {trial}: found below exact");
            assert_eq!(
                res.ged, exact,
                "trial {trial}: {} vs exact {exact}",
                res.ged
            );
        }
    }

    #[test]
    fn result_is_always_feasible() {
        let mut rng = SmallRng::seed_from_u64(18);
        for _ in 0..20 {
            let n1 = rng.gen_range(3..=6);
            let n2 = rng.gen_range(n1..=7);
            let g1 = ged_graph::generate::random_connected(n1, 2, &[0.4, 0.6], &mut rng);
            let g2 = ged_graph::generate::random_connected(n2, 2, &[0.4, 0.6], &mut rng);
            let pi = Matrix::from_fn(n1, n2, |_, _| rng.gen_range(0.0..1.0));
            let res = kbest_edit_path(&g1, &g2, &pi, 8);
            assert_eq!(res.path.len(), res.ged);
            let out = res.path.apply(&g1).unwrap();
            assert!(are_isomorphic(&out, &g2));
        }
    }

    #[test]
    fn larger_k_never_hurts() {
        let mut rng = SmallRng::seed_from_u64(19);
        let g1 = ged_graph::generate::random_connected(5, 2, &[0.3, 0.3, 0.4], &mut rng);
        let g2 = ged_graph::generate::random_connected(6, 2, &[0.3, 0.3, 0.4], &mut rng);
        let pi = Matrix::from_fn(5, 6, |_, _| rng.gen_range(0.0..1.0));
        let mut prev = usize::MAX;
        for k in [1, 2, 4, 8, 16, 32] {
            let res = kbest_edit_path(&g1, &g2, &pi, k);
            assert!(res.ged <= prev, "k={k} worsened {} -> {}", prev, res.ged);
            prev = res.ged;
        }
    }

    #[test]
    fn identical_graphs_zero_path() {
        let (g1, _) = figure1();
        let pi = Matrix::identity(3);
        let res = kbest_edit_path(&g1, &g1, &pi, 3);
        assert_eq!(res.ged, 0);
        assert!(res.path.is_empty());
    }
}
