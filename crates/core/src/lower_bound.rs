//! Admissible lower bounds for the filter tiers.
//!
//! The label-set GED lower bound (Eq. 22 of the paper, after [Chang et al.
//! 2020]):
//!
//! ```text
//! GED_LB(G1, G2) = |L(V1) ⊕ L(V2)| + | |E1| - |E2| |
//! ```
//!
//! where `⊕` is the multiset symmetric difference. Computable in linear
//! time; used by the k-best matching framework to prune unpromising
//! subspaces, and — in the [`GraphSignature`]-based variants
//! ([`label_set_lower_bound_sig`], [`degree_sequence_lower_bound_sig`]) —
//! by the engine's filter–verify similarity search, where the sorted
//! multisets the bounds consume are precomputed once per stored graph
//! instead of re-derived per pair.
//!
//! # The branch bound on GEDGW's objective
//!
//! [`branch_lower_bound`] bounds a different quantity: not GED alone, but
//! the objective GEDGW minimizes (Eq. 17) at **every** coupling of the
//! Birkhoff polytope, hence every estimate GEDGW can return. On GEDGW's
//! padded pair (`n` nodes each, `M` the label-mismatch matrix with dummy
//! rows at 1, `d1`/`d2` the node degrees with dummies at 0) and for any
//! doubly stochastic `π`:
//!
//! ```text
//! ½⟨π, L⊗π⟩ = |E1| + |E2| − Σ π_ik (A1 π A2)_ik,   (A1 π A2)_ik ≤ min(d1_i, d2_k)
//! |E1| + |E2| = Σ π_ik (d1_i + d2_k) / 2
//! f(π) = ⟨π, M⟩ + ½⟨π, L⊗π⟩ ≥ Σ π_ik (M_ik + ½|d1_i − d2_k|) ≥ LSAP(M + ½|d1 − d2|)
//! ```
//!
//! The last step is Birkhoff's theorem (a linear function attains its
//! minimum over the polytope at a permutation). This is the uniform-cost
//! BRANCH bound of Blumenthal & Gamper (*Improved lower bounds for graph
//! edit distance*, IEEE TKDE 2018); at a permutation `f` is an edit cost,
//! so the bound is also admissible for GED itself. The plans use it as a
//! bound on the *estimator*: a pruned candidate's refined value
//! `max(estimate, lb)` is at least the bound, so discarding it when the
//! bound exceeds the threshold changes no answer. That rests on the
//! estimate being GEDGW's objective, which is why only solvers that
//! declare [`crate::solver::GedSolver::respects_branch_bound`] prune
//! through it: a learned or ensembled estimate can lie below it.
//!
//! As a bound on GED it is the root case of [`completion_lower_bound`],
//! the exact search's bound on completing a partial node mapping
//! ([`crate::search`] gives the admissibility argument).

use crate::gedgw::GedgwOptions;
use crate::pairs::ordered;
use crate::workspace::{reset, GedWorkspace};
use ged_graph::{CsrView, Graph, GraphSignature, Label};
use ged_linalg::{lsap_min_into, LsapWorkspace, Matrix};

/// Surplus counts of two sorted multisets: `(|A \ B|, |B \ A|)`, via one
/// merge pass. Shared with the allocation-free bound evaluation inside
/// [`crate::search`].
pub(crate) fn sorted_multiset_surplus(a: &[Label], b: &[Label]) -> (usize, usize) {
    let (mut i, mut j) = (0usize, 0usize);
    let (mut only1, mut only2) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                only1 += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                only2 += 1;
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    (only1 + a.len() - i, only2 + b.len() - j)
}

/// [`label_set_lower_bound`] evaluated on precomputed signatures — the
/// form the filter stage of the engine's similarity search consumes
/// (identical value, no per-pair sorting).
#[must_use]
pub fn label_set_lower_bound_sig(a: &GraphSignature, b: &GraphSignature) -> usize {
    let (only1, only2) = sorted_multiset_surplus(a.labels(), b.labels());
    only1.max(only2) + a.num_edges().abs_diff(b.num_edges())
}

/// [`degree_sequence_lower_bound`] evaluated on precomputed signatures
/// (identical value, no per-pair sorting).
#[must_use]
pub fn degree_sequence_lower_bound_sig(a: &GraphSignature, b: &GraphSignature) -> usize {
    let n = a.num_nodes().max(b.num_nodes());
    // Zero-padding the shorter sorted sequence puts the zeros up front, so
    // aligned position `i` reads from sequence position `i - pad`.
    let (d1, d2) = (a.degrees(), b.degrees());
    let (pad1, pad2) = (n - d1.len(), n - d2.len());
    let mut diff = 0usize;
    for i in 0..n {
        let x = if i < pad1 { 0 } else { d1[i - pad1] };
        let y = if i < pad2 { 0 } else { d2[i - pad2] };
        diff += x.abs_diff(y);
    }
    let (only1, only2) = sorted_multiset_surplus(a.labels(), b.labels());
    only1.max(only2) + diff.div_ceil(2)
}

/// The label-multiset + edge-count lower bound on `GED(g1, g2)`.
///
/// The node term counts the label relabels/insertions any edit path must
/// perform. The multiset symmetric difference `|A ⊕ B|` overcounts by
/// pairing a surplus label in `G1` with a surplus label in `G2` as *two*
/// entries while one relabel fixes both, so the node term is
/// `max(surplus1, surplus2)` = `max(|A\B|, |B\A|)` — the standard tight
/// variant used for uniform costs.
#[must_use]
pub fn label_set_lower_bound(g1: &Graph, g2: &Graph) -> usize {
    let (only1, only2) = sorted_multiset_surplus(&g1.label_multiset(), &g2.label_multiset());
    only1.max(only2) + g1.num_edges().abs_diff(g2.num_edges())
}

/// Lower bound refined with a partial (forced) matching: forced pairs
/// contribute their exact label mismatch; the label-set bound applies to the
/// remaining nodes. Used by the k-best framework's subspace pruning.
#[must_use]
pub fn partial_matching_lower_bound(g1: &Graph, g2: &Graph, forced: &[(usize, usize)]) -> usize {
    let mut fixed_cost = 0usize;
    let mut used1 = vec![false; g1.num_nodes()];
    let mut used2 = vec![false; g2.num_nodes()];
    for &(u, v) in forced {
        used1[u] = true;
        used2[v] = true;
        if g1.label(u as u32) != g2.label(v as u32) {
            fixed_cost += 1;
        }
    }
    // Label multiset bound on unmatched nodes.
    let mut rest1: Vec<_> = (0..g1.num_nodes())
        .filter(|&u| !used1[u])
        .map(|u| g1.label(u as u32))
        .collect();
    let mut rest2: Vec<_> = (0..g2.num_nodes())
        .filter(|&v| !used2[v])
        .map(|v| g2.label(v as u32))
        .collect();
    rest1.sort_unstable();
    rest2.sort_unstable();
    let (only1, only2) = sorted_multiset_surplus(&rest1, &rest2);

    fixed_cost + only1.max(only2) + g1.num_edges().abs_diff(g2.num_edges())
}

/// The branch lower bound on GEDGW's objective (see the
/// [module docs](self)): `LSAP(M + ½|d1 − d2|)` over GEDGW's padded pair.
/// Symmetric in its arguments and exact: every cost is a multiple of ½,
/// so the solve and its sum round nowhere.
#[must_use]
pub fn branch_lower_bound(g1: &Graph, g2: &Graph) -> f64 {
    branch_lower_bound_in(g1, g2, &mut GedWorkspace::new())
}

/// [`branch_lower_bound`] with every buffer drawn from `ws` (the flat
/// graph views, the cost matrix and the LSAP scratch GEDGW also uses), so
/// a warm call allocates nothing. Same value for any (possibly dirty)
/// workspace.
#[must_use]
pub fn branch_lower_bound_in(g1: &Graph, g2: &Graph, ws: &mut GedWorkspace) -> f64 {
    let (a, b, _) = ordered(g1, g2);
    let GedWorkspace {
        ot,
        m,
        csr1,
        csr2,
        anchored,
        ..
    } = ws;
    csr1.rebuild_from(a);
    csr2.rebuild_from(b);
    anchored_lower_bound(csr1, csr2, &[], anchored, m, &mut ot.lsap)
}

/// The exact search's bound at one of its states (see [`crate::search`]):
/// a lower bound on what completing `mapping` can still cost, where
/// `mapping[w]` is the `g2` node `g1`'s node `w` maps to, for `g1`'s first
/// `mapping.len()` nodes. The cost already incurred among mapped nodes
/// is not included. With an empty mapping this is
/// [`branch_lower_bound`] of the (ordered) pair.
///
/// # Panics
/// If `g1` has more nodes than `g2`, or `mapping` is longer than `g1`,
/// repeats a node or names one `g2` does not have.
#[must_use]
pub fn completion_lower_bound(g1: &Graph, g2: &Graph, mapping: &[u32]) -> f64 {
    let (n1, n2) = (g1.num_nodes(), g2.num_nodes());
    assert!(
        n1 <= n2 && mapping.len() <= n1,
        "needs |V1| ≤ |V2| and a prefix of V1"
    );
    let mut seen = vec![false; n2];
    for &v in mapping {
        assert!(
            !std::mem::replace(&mut seen[v as usize], true),
            "mapping repeats {v}"
        );
    }
    let mut ws = GedWorkspace::new();
    let GedWorkspace {
        ot,
        m,
        csr1,
        csr2,
        anchored,
        ..
    } = &mut ws;
    csr1.rebuild_from(g1);
    csr2.rebuild_from(g2);
    anchored_lower_bound(csr1, csr2, mapping, anchored, m, &mut ot.lsap)
}

/// Scratch of [`anchored_lower_bound`], indexed by `G2` node (`col`,
/// `mapped`) or by cost-matrix column (the rest).
#[derive(Clone, Debug, Default)]
pub(crate) struct AnchoredScratch {
    /// Whether a `G2` node is an image of the partial mapping.
    mapped: Vec<bool>,
    /// The column of an unmapped `G2` node.
    col: Vec<u32>,
    /// The label of each column's node (the unmapped `G2` nodes,
    /// ascending).
    labels2: Vec<Label>,
    /// Edges from a column's node to mapped images.
    anchored2: Vec<usize>,
    /// Edges from a column's node to other unmapped nodes.
    rest2: Vec<usize>,
    /// Per row: mapped `G1` neighbors of the row's node whose images are
    /// `G2` neighbors of the column's node.
    common: Vec<usize>,
}

/// The anchored LSAP bound on the cost of completing a partial node
/// mapping (see [`crate::search`] for the admissibility argument): `G1`
/// (the smaller graph, read through `csr1`) has its first `d =
/// mapping.len()` nodes mapped, node `w` to `mapping[w]`. Fills `m` with
/// the square cost matrix over (unmapped `G1` nodes, then dummy rows) ×
/// (unmapped `G2` nodes, ascending),
///
/// ```text
/// c(u, v)     = [l(u) ≠ l(v)] + Σ_{w<d} [A1(u, w) ≠ A2(v, mapping[w])] + ½|r1(u) − r2(v)|
/// c(dummy, v) = 1 + #edges(v, mapped images) + ½ r2(v)
/// ```
///
/// (`r` counts edges to unmapped nodes), and returns its LSAP optimum.
/// Every entry is a multiple of ½, so the value is exact. At `d = 0` this
/// is [`branch_lower_bound`]'s matrix, entry for entry.
pub(crate) fn anchored_lower_bound(
    csr1: &CsrView,
    csr2: &CsrView,
    mapping: &[u32],
    s: &mut AnchoredScratch,
    m: &mut Matrix,
    lsap: &mut LsapWorkspace,
) -> f64 {
    let (n1, n2, d) = (csr1.num_nodes(), csr2.num_nodes(), mapping.len());
    debug_assert!(d <= n1 && n1 <= n2);
    reset(&mut s.mapped, n2, false);
    for &v in mapping {
        s.mapped[v as usize] = true;
    }
    reset(&mut s.col, n2, u32::MAX);
    s.labels2.clear();
    s.anchored2.clear();
    s.rest2.clear();
    for v in 0..n2 as u32 {
        if s.mapped[v as usize] {
            continue;
        }
        s.col[v as usize] = s.labels2.len() as u32;
        s.labels2.push(csr2.label(v));
        let to_mapped = if d == 0 {
            0
        } else {
            (csr2.neighbors(v).iter())
                .filter(|&&x| s.mapped[x as usize])
                .count()
        };
        s.anchored2.push(to_mapped);
        s.rest2.push(csr2.degree(v) - to_mapped);
    }
    let c = n2 - d;
    m.resize_zeroed(c, c);
    for (i, u) in (d as u32..n1 as u32).enumerate() {
        // Neighbor lists are sorted, so the mapped ones (`w < d`) lead.
        let neighbors = csr1.neighbors(u);
        let anchored1 = neighbors.partition_point(|&w| (w as usize) < d);
        let rest1 = neighbors.len() - anchored1;
        let lu = csr1.label(u);
        let row = m.row_mut(i);
        if anchored1 == 0 {
            // No edge to a mapped node on this side: every anchored edge
            // of the column's node is a mismatch. (Every row at the root;
            // the shortcut keeps the branch tier's bound as cheap as a
            // plain fill.)
            for (j, &l2) in s.labels2.iter().enumerate() {
                let fixed = usize::from(lu != l2) + s.anchored2[j];
                row[j] = fixed as f64 + 0.5 * rest1.abs_diff(s.rest2[j]) as f64;
            }
            continue;
        }
        reset(&mut s.common, c, 0);
        for &w in &neighbors[..anchored1] {
            for &x in csr2.neighbors(mapping[w as usize]) {
                let j = s.col[x as usize];
                if j != u32::MAX {
                    s.common[j as usize] += 1;
                }
            }
        }
        for (j, &l2) in s.labels2.iter().enumerate() {
            // Anchored mismatches: edges to mapped nodes on either side,
            // minus the ones both sides keep.
            let fixed = usize::from(lu != l2) + anchored1 + s.anchored2[j] - 2 * s.common[j];
            row[j] = fixed as f64 + 0.5 * rest1.abs_diff(s.rest2[j]) as f64;
        }
    }
    for i in (n1 - d)..c {
        // Dummy rows: the column's node is inserted with all its edges.
        let inserted = s.anchored2.iter().zip(&s.rest2);
        for (x, (&anchored2, &rest2)) in m.row_mut(i).iter_mut().zip(inserted) {
            *x = (1 + anchored2) as f64 + 0.5 * rest2 as f64;
        }
    }
    lsap_min_into(m, lsap)
}

/// [`anchored_lower_bound`] as a bound on an integral cost: its ceiling,
/// with a margin far below the ½ steps the value moves in.
pub(crate) fn ceil_bound(lsap: f64) -> usize {
    (lsap - 1e-9).ceil() as usize
}

/// How far below [`branch_lower_bound`] rounding alone can put a
/// [`crate::gedgw::Gedgw`] estimate (default options) of the pair. A
/// plan prunes only when `branch > threshold + slack`, never on equality.
///
/// With `n` the padded size, `K` the iteration cap, `ε` the machine
/// epsilon and `S = n + |E1| + |E2|` (which bounds every term of the
/// objective):
///
/// * *marginals* — the start `1/n` rounds each row sum by ≤ ε/2, and each
///   Frank–Wolfe update `π + γ(s − π)` rounds each entry three times, so
///   after `K` iterations every row and column sum of the iterate is
///   within `δ ≤ 2Knε` of 1 (entries stay ≥ 0). Re-running the derivation
///   with marginals `1 ± δ` loses at most `4δ(|E1| + |E2|)` in the
///   quadratic identity and degree bound, and `δ·(Σ|u| + Σ|v|) ≤
///   δ(n² + 2n)` in the LSAP step (optimal duals of costs in
///   `[0, 1 + n/2]` can be taken within that range), so `δ(n² + 4S) ≤
///   5δnS = 10Kn²εS` in all;
/// * *evaluation* — the objective is a sum of `n²` products against
///   `L⊗π`, itself sums of at most `n` terms, all within `S` in
///   magnitude: at most `8n²εS`.
///
/// Together `(10K + 8)·n²·ε·S`: about `5·10⁻¹⁰` for a 10-node pair with
/// 40 edges in all, far below the ½ steps the bound moves in.
#[must_use]
pub fn branch_slack(g1: &Graph, g2: &Graph) -> f64 {
    let n = g1.num_nodes().max(g2.num_nodes()) as f64;
    let k = GedgwOptions::default().max_iter as f64;
    let s = n + (g1.num_edges() + g2.num_edges()) as f64;
    (10.0 * k + 8.0) * n * n * f64::EPSILON * s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_graph::{Graph, Label};

    fn g(labels: &[u32], edges: &[(u32, u32)]) -> Graph {
        Graph::from_edges(labels.iter().map(|&l| Label(l)).collect(), edges)
    }

    #[test]
    fn identical_graphs_have_zero_bound() {
        let a = g(&[1, 2, 3], &[(0, 1), (1, 2)]);
        assert_eq!(label_set_lower_bound(&a, &a), 0);
    }

    #[test]
    fn counts_label_surplus_and_edge_gap() {
        let a = g(&[1, 1, 2], &[(0, 1), (1, 2), (0, 2)]);
        let b = g(&[1, 3, 3, 4], &[(0, 1)]);
        // a-only labels: {1, 2}; b-only: {3, 3, 4} -> node term max(2,3)=3.
        // Edge gap |3-1| = 2. Total 5.
        assert_eq!(label_set_lower_bound(&a, &b), 5);
    }

    #[test]
    fn bound_is_admissible_on_figure1() {
        // The Figure 1 pair has exact GED 4; the bound must not exceed it.
        let g1 = g(&[1, 1, 2], &[(0, 1), (0, 2), (1, 2)]);
        let g2 = g(&[1, 1, 3, 4], &[(0, 1), (0, 2), (2, 3)]);
        let lb = label_set_lower_bound(&g1, &g2);
        assert!(lb <= 4, "lb = {lb}");
        assert!(lb >= 2);
    }

    #[test]
    fn symmetric() {
        let a = g(&[1, 2], &[(0, 1)]);
        let b = g(&[3, 3, 3], &[]);
        assert_eq!(label_set_lower_bound(&a, &b), label_set_lower_bound(&b, &a));
    }

    #[test]
    fn partial_bound_dominates_base_bound() {
        let a = g(&[1, 1, 2], &[(0, 1), (1, 2)]);
        let b = g(&[2, 1, 1], &[(0, 1)]);
        let base = label_set_lower_bound(&a, &b);
        // Forcing a label-mismatched pair can only raise the bound.
        let forced = vec![(0usize, 0usize)]; // labels 1 vs 2: mismatch
        let refined = partial_matching_lower_bound(&a, &b, &forced);
        assert!(refined >= base, "refined {refined} < base {base}");
    }

    #[test]
    fn partial_bound_with_empty_forced_equals_base() {
        let a = g(&[1, 5, 2], &[(0, 1)]);
        let b = g(&[2, 1], &[(0, 1)]);
        assert_eq!(
            partial_matching_lower_bound(&a, &b, &[]),
            label_set_lower_bound(&a, &b)
        );
    }
}

/// Degree-sequence GED lower bound.
///
/// The label-multiset term counts node operations as in
/// [`label_set_lower_bound`]; the edge term observes that one edge edit
/// changes the degrees of exactly two nodes by one each, so the number of
/// edge operations is at least `⌈D/2⌉` where `D` is the minimum L1
/// distance between the (zero-padded) degree sequences over all node
/// alignments — attained by the sorted order (rearrangement inequality).
/// Neither bound dominates the other: combine with
/// `max(label_set_lower_bound, degree_sequence_lower_bound)`.
#[must_use]
pub fn degree_sequence_lower_bound(g1: &Graph, g2: &Graph) -> usize {
    let n = g1.num_nodes().max(g2.num_nodes());
    let mut d1: Vec<usize> = (0..g1.num_nodes() as u32).map(|u| g1.degree(u)).collect();
    let mut d2: Vec<usize> = (0..g2.num_nodes() as u32).map(|u| g2.degree(u)).collect();
    d1.resize(n, 0);
    d2.resize(n, 0);
    d1.sort_unstable();
    d2.sort_unstable();
    let diff: usize = d1.iter().zip(&d2).map(|(&a, &b)| a.abs_diff(b)).sum();
    let edge_term = diff.div_ceil(2);

    // Node term: same label-multiset argument as the label-set bound.
    let (o1, o2) = sorted_multiset_surplus(&g1.label_multiset(), &g2.label_multiset());
    o1.max(o2) + edge_term
}

#[cfg(test)]
mod degree_bound_tests {
    use super::*;
    use ged_graph::{generate, NodeMapping};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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
                *best = (*best).min(NodeMapping::new(map.clone()).induced_cost(g1, g2));
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
    fn degree_bound_is_admissible() {
        let mut rng = SmallRng::seed_from_u64(301);
        for _ in 0..40 {
            let n1 = rng.gen_range(2..=5);
            let n2 = rng.gen_range(n1..=6);
            let g1 = generate::random_connected(n1, 1, &[0.5, 0.5], &mut rng);
            let g2 = generate::random_connected(n2, 2, &[0.5, 0.5], &mut rng);
            let exact = brute_ged(&g1, &g2);
            let lb = degree_sequence_lower_bound(&g1, &g2);
            assert!(lb <= exact, "lb {lb} > exact {exact} for {g1:?} / {g2:?}");
        }
    }

    #[test]
    fn bounded_search_prefilter_stays_admissible() {
        // `bounded_exact_ged` pre-filters with BOTH bounds; if either were
        // inadmissible the search would wrongly reject a pair whose true
        // GED is within τ. Sweep random pairs: τ = exact must succeed with
        // the exact value, τ = exact - 1 must reject.
        use crate::search::bounded_exact_ged;
        let mut rng = SmallRng::seed_from_u64(303);
        for _ in 0..40 {
            let n1 = rng.gen_range(2..=5);
            let n2 = rng.gen_range(n1..=6);
            let g1 = generate::random_connected(n1, 1, &[0.5, 0.5], &mut rng);
            let g2 = generate::random_connected(n2, 2, &[0.5, 0.5], &mut rng);
            let exact = brute_ged(&g1, &g2);
            let lb = label_set_lower_bound(&g1, &g2).max(degree_sequence_lower_bound(&g1, &g2));
            assert!(lb <= exact, "combined pre-filter bound must be admissible");
            assert_eq!(
                bounded_exact_ged(&g1, &g2, exact),
                Some(exact),
                "pre-filter must never reject a pair with GED ≤ τ: {g1:?} / {g2:?}"
            );
            if exact > 0 {
                assert_eq!(bounded_exact_ged(&g1, &g2, exact - 1), None);
            }
        }
    }

    #[test]
    fn degree_bound_can_beat_label_bound() {
        // Same label multisets and edge counts, very different degrees:
        // star K1,4 vs path P5 (both unlabeled, 4 edges).
        let star = Graph::unlabeled_from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let path = Graph::unlabeled_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(label_set_lower_bound(&star, &path), 0);
        // degrees star: [1,1,1,1,4], path: [1,1,2,2,2] -> D = 1+1+3 = 5?
        // sorted: star [1,1,1,1,4], path [1,1,2,2,2]: |1-2|+|1-2|+|4-2| = 4
        // edge term = 2.
        assert!(degree_sequence_lower_bound(&star, &path) >= 2);
    }

    #[test]
    fn identical_graphs_zero() {
        let g = Graph::unlabeled_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(degree_sequence_lower_bound(&g, &g), 0);
    }

    #[test]
    fn signature_bounds_equal_graph_bounds() {
        let mut rng = SmallRng::seed_from_u64(302);
        for _ in 0..60 {
            let n1 = rng.gen_range(1..=8);
            let n2 = rng.gen_range(1..=8);
            let g1 = generate::random_connected(n1, 1, &[0.4, 0.3, 0.3], &mut rng);
            let g2 = generate::random_connected(n2, 2, &[0.4, 0.3, 0.3], &mut rng);
            let (s1, s2) = (GraphSignature::of(&g1), GraphSignature::of(&g2));
            assert_eq!(
                label_set_lower_bound_sig(&s1, &s2),
                label_set_lower_bound(&g1, &g2),
                "{g1:?} / {g2:?}"
            );
            assert_eq!(
                degree_sequence_lower_bound_sig(&s1, &s2),
                degree_sequence_lower_bound(&g1, &g2),
                "{g1:?} / {g2:?}"
            );
        }
    }
}
