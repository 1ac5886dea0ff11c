//! Threshold-based graph similarity search (the application of Section 2
//! of the paper).
//!
//! Given a query graph and a threshold `τ`, retrieve every database graph
//! whose GED to the query is `≤ τ`. The classical pipeline is
//! *filter-then-verify*:
//!
//! 1. **filter** — cheap lower bounds (label-set, degree-sequence) discard
//!    candidates whose bound already exceeds `τ`;
//! 2. **prune** — a fast feasible upper bound (best-matching rounding of a
//!    GEDGW coupling) *accepts* candidates whose upper bound is `≤ τ`;
//! 3. **verify** — the surviving candidates run a τ-bounded exact A\*
//!    that aborts as soon as the optimum provably exceeds `τ`.
//!
//! Setting `τ = ∞` degrades to exact GED computation, exactly as the paper
//! notes for Nass / AStar-BMao; the engine's
//! [`crate::engine::GedQuery::RangeExact`] accepts `τ = +∞` with exactly
//! that full-scan meaning.
//!
//! The tiers are exposed individually — [`label_set_lower_bound`] /
//! [`degree_sequence_lower_bound`] (re-exported from
//! [`crate::lower_bound`]), [`fast_upper_bound`], and
//! [`bounded_exact_ged_with_budget`] — and composed per candidate by
//! [`prune_or_verify`], which the store-level
//! [`crate::engine::GedQuery::RangeExact`] plan runs after its
//! signature-fed filter tier. Its [`CandidateOutcome`]s always carry
//! exact distances: an upper-bound accept decides *membership* without
//! τ-bounded search, then recovers the exact distance with a search
//! bounded by the (tighter) feasible bound itself.
//!
//! [`label_set_lower_bound`]: crate::lower_bound::label_set_lower_bound
//! [`degree_sequence_lower_bound`]: crate::lower_bound::degree_sequence_lower_bound

use crate::gedgw::Gedgw;
use crate::lower_bound::{
    degree_sequence_lower_bound, label_set_lower_bound, sorted_multiset_surplus,
};
use crate::pairs::ordered;
use crate::workspace::{reset, GedWorkspace};
use ged_graph::{CsrView, Graph, NodeMapping, PivotDistance};
use ged_linalg::lsap_min_in;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Statistics of the τ-exact filter–prune–verify pipeline (how much work
/// each stage saved). Every candidate lands in exactly one tier, so
/// [`ExactSearchStats::total`] always equals the number of candidates
/// examined (for a store-level query, the store size). The engine's
/// approximate store search reports the analogous
/// [`crate::engine::SearchStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExactSearchStats {
    /// Candidates discarded wholesale at the shard tier: their entire
    /// shard's aggregate lower bound already exceeded `τ`, so no
    /// per-graph metadata was touched. Always zero for flat-store plans
    /// (see [`ged_graph::shard::ShardedStore`]).
    pub pruned_shard: usize,
    /// Candidates discarded by the pivot-table lower bound
    /// (`|d(q,p) − d(p,g)| > τ` for some pivot `p`) before the signature
    /// bounds were even consulted. Always zero when the engine has no
    /// pivot index ([`crate::engine::GedEngineBuilder::pivots`]).
    pub pruned_pivot: usize,
    /// Candidates discarded by the signature lower bounds.
    pub filtered: usize,
    /// Candidates whose membership the pivot-table upper bound
    /// (`d(q,p) + d(p,g) ≤ τ`) certified before the GEDGW upper bound ran
    /// (the exact distance is then recovered by a search bounded by that
    /// pivot bound). Always zero without a pivot index.
    pub accepted_pivot: usize,
    /// Candidates accepted by the GEDGW upper bound.
    pub accepted_early: usize,
    /// Candidates that required bounded exact verification.
    pub verified: usize,
    /// Candidates whose bounded search exhausted its node-expansion
    /// budget before reaching a decision (see
    /// [`crate::engine::GedEngineBuilder::verify_budget`]). Always zero
    /// when the budget is unlimited.
    pub budget_exceeded: usize,
    /// Query-to-pivot distances the oracle computed to arm the pivot
    /// tier: a block's pivot count per armed unit, 0 for a unit whose
    /// table row a stored query reused, and 0 for units the shard tier
    /// skipped before arming them. An overlay count of work, **not** an
    /// accounting tier (outside [`ExactSearchStats::total`]).
    pub pivot_distances: usize,
}

impl ExactSearchStats {
    /// Total candidates accounted for — the per-tier counts always close
    /// to the number of candidates examined, whether or not the pivot
    /// tiers fired.
    #[must_use]
    pub fn total(&self) -> usize {
        self.pruned_shard
            + self.pruned_pivot
            + self.filtered
            + self.accepted_pivot
            + self.accepted_early
            + self.verified
            + self.budget_exceeded
    }

    /// Accounts one prune/verify-phase [`CandidateOutcome`] to its tier —
    /// the single outcome→tier mapping every store-level exact plan uses,
    /// so accounting cannot drift between plans. (`Rejected` still counts
    /// as `verified`: the candidate consumed a bounded exact search.)
    pub fn record(&mut self, outcome: &CandidateOutcome) {
        match outcome {
            CandidateOutcome::AcceptedByPivot { .. } => self.accepted_pivot += 1,
            CandidateOutcome::AcceptedEarly { .. } => self.accepted_early += 1,
            CandidateOutcome::Verified { .. } | CandidateOutcome::Rejected => self.verified += 1,
            CandidateOutcome::BudgetExhausted { .. } => self.budget_exceeded += 1,
        }
    }
}

impl fmt::Display for ExactSearchStats {
    /// One-line tier breakdown, filter order left to right:
    /// `shard=.. pivot=.. filtered=.. accept_pivot=.. accept_ub=..
    /// verified=.. budget=.. total=.. pivot_distances=..`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard={} pivot={} filtered={} accept_pivot={} accept_ub={} verified={} budget={} \
             total={} pivot_distances={}",
            self.pruned_shard,
            self.pruned_pivot,
            self.filtered,
            self.accepted_pivot,
            self.accepted_early,
            self.verified,
            self.budget_exceeded,
            self.total(),
            self.pivot_distances
        )
    }
}

/// Statistics of one GED join ([`crate::engine::GedQuery::SelfJoin`] /
/// [`crate::engine::GedQuery::Join`]): which tier settled each candidate
/// pair. Every pair of the join's candidate matrix lands in exactly one
/// tier, so [`JoinStats::total`] always equals the exact pair count —
/// `n·(n−1)/2` for a self-join over `n` graphs, `n·m` for a cross-store
/// join — whatever the tiers decided.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Pairs discarded wholesale at the block tier: the aggregate bound
    /// between their two units (shard×shard, or flat-store size ranges)
    /// already exceeded `τ`, so the block's pairs were counted off
    /// without touching any per-graph metadata.
    pub pruned_block: usize,
    /// Pairs discarded wholesale at the band tier: candidates are
    /// generated in signature-sort (node-count) order, so once one
    /// pair's size difference exceeds `τ` the whole remaining
    /// contiguous band of larger partners is discarded by arithmetic.
    pub pruned_band: usize,
    /// Pairs discarded one-by-one by the signature lower bounds
    /// (label multiset, degree sequence). Negative-`τ` joins account
    /// every pair here (nothing can match).
    pub filtered: usize,
    /// Pairs discarded by the pivot-table triangle lower bound. Always
    /// zero without a pivot index.
    pub pruned_pivot: usize,
    /// Pairs answered from an already-verified structurally identical
    /// pair: symmetric/duplicate pairs canonicalize to the same
    /// representative (same orientation the prediction cache keys on),
    /// which is verified once and its outcome shared.
    pub cache_hits: usize,
    /// Pairs whose membership the pivot-table upper bound certified
    /// before exact verification (the exact distance is then recovered
    /// by a search bounded by that certificate).
    pub accepted_pivot: usize,
    /// Pairs accepted by the GEDGW feasible upper bound.
    pub accepted_early: usize,
    /// Pairs that required bounded exact verification (including pairs
    /// the verification rejected).
    pub verified: usize,
    /// Pairs whose bounded search exhausted its node-expansion budget
    /// undecided (surfaced in the join result, not silently dropped).
    /// Always zero when the budget is unlimited.
    pub budget_exceeded: usize,
}

impl JoinStats {
    /// Total pairs accounted for — always the join's exact candidate
    /// pair count (`n·(n−1)/2` resp. `n·m`), whichever tiers fired.
    #[must_use]
    pub fn total(&self) -> usize {
        self.pruned_block
            + self.pruned_band
            + self.filtered
            + self.pruned_pivot
            + self.cache_hits
            + self.accepted_pivot
            + self.accepted_early
            + self.verified
            + self.budget_exceeded
    }

    /// Accounts one verify-phase [`CandidateOutcome`] to its tier — the
    /// same outcome→tier mapping as [`ExactSearchStats::record`], so
    /// join and per-query accounting cannot drift. (`Rejected` still
    /// counts as `verified`: the pair consumed a bounded exact search.)
    pub fn record(&mut self, outcome: &CandidateOutcome) {
        match outcome {
            CandidateOutcome::AcceptedByPivot { .. } => self.accepted_pivot += 1,
            CandidateOutcome::AcceptedEarly { .. } => self.accepted_early += 1,
            CandidateOutcome::Verified { .. } | CandidateOutcome::Rejected => self.verified += 1,
            CandidateOutcome::BudgetExhausted { .. } => self.budget_exceeded += 1,
        }
    }
}

impl fmt::Display for JoinStats {
    /// One-line tier breakdown, filter order left to right:
    /// `block=.. band=.. filtered=.. pivot=.. cache=.. accept_pivot=..
    /// accept_ub=.. verified=.. budget=.. total=..`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "block={} band={} filtered={} pivot={} cache={} accept_pivot={} accept_ub={} \
             verified={} budget={} total={}",
            self.pruned_block,
            self.pruned_band,
            self.filtered,
            self.pruned_pivot,
            self.cache_hits,
            self.accepted_pivot,
            self.accepted_early,
            self.verified,
            self.budget_exceeded,
            self.total()
        )
    }
}

/// The result of a budgeted τ-bounded exact search
/// ([`bounded_exact_ged_with_budget`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundedSearch {
    /// `GED(g1, g2) = ged ≤ τ`, proven exactly.
    Within(
        /// The exact GED.
        usize,
    ),
    /// `GED(g1, g2) > τ`, proven exactly.
    Exceeds,
    /// The node-expansion budget ran out before either proof: the pair is
    /// undecided. Never produced by an (effectively) unlimited budget.
    BudgetExhausted,
}

/// τ-bounded exact GED: returns `Some(ged)` if `GED(g1,g2) <= tau`, `None`
/// otherwise. A* with the admissible heuristic, aborting any branch whose
/// `f`-value exceeds `tau` — far cheaper than unbounded exact search for
/// small thresholds. Candidate pairs are pre-filtered with *both*
/// admissible lower bounds (label-set and degree-sequence), so a provably
/// distant pair never starts a search at all.
#[must_use]
pub fn bounded_exact_ged(g1: &Graph, g2: &Graph, tau: usize) -> Option<usize> {
    match bounded_exact_ged_with_budget(g1, g2, tau, usize::MAX) {
        BoundedSearch::Within(ged) => Some(ged),
        // A `usize::MAX` expansion budget can never actually exhaust.
        BoundedSearch::Exceeds | BoundedSearch::BudgetExhausted => None,
    }
}

/// [`bounded_exact_ged`] with a node-expansion budget: the search gives up
/// with [`BoundedSearch::BudgetExhausted`] after popping `budget` states
/// from the open list, so one pathological pair cannot blow up a
/// store-level query. `budget = usize::MAX` is effectively unlimited and
/// recovers [`bounded_exact_ged`] exactly.
#[must_use]
pub fn bounded_exact_ged_with_budget(
    g1: &Graph,
    g2: &Graph,
    tau: usize,
    budget: usize,
) -> BoundedSearch {
    bounded_exact_ged_with_budget_in(g1, g2, tau, budget, &mut GedWorkspace::new())
}

/// [`bounded_exact_ged_with_budget`] with the pre-filter bounds and the
/// per-expansion mark/label scratch drawn from `ws`, and both graphs read
/// through flat [`CsrView`]s rebuilt into the workspace. The state
/// traversal (expansion order, heap tie-breaks, budget accounting) is
/// identical to the allocating version, so results match for any
/// (possibly dirty) workspace.
#[must_use]
pub fn bounded_exact_ged_with_budget_in(
    g1: &Graph,
    g2: &Graph,
    tau: usize,
    budget: usize,
    ws: &mut GedWorkspace,
) -> BoundedSearch {
    let (a, b, _) = ordered(g1, g2);
    let GedWorkspace {
        csr1,
        csr2,
        used,
        matched,
        rest1,
        rest2,
        deg1,
        deg2,
        ..
    } = ws;
    csr1.rebuild_from(a);
    csr2.rebuild_from(b);
    let n1 = csr1.num_nodes();
    let n2 = csr2.num_nodes();

    // Both admissible bounds: each can dominate the other, and a bound
    // above τ proves GED > τ without expanding a single state. The label
    // surplus is shared by both, so it is merged once.
    rest1.clear();
    rest1.extend_from_slice(csr1.labels());
    rest1.sort_unstable();
    rest2.clear();
    rest2.extend_from_slice(csr2.labels());
    rest2.sort_unstable();
    let (o1, o2) = sorted_multiset_surplus(rest1, rest2);
    let node_term = o1.max(o2);
    if node_term + csr1.num_edges().abs_diff(csr2.num_edges()) > tau {
        return BoundedSearch::Exceeds;
    }
    let n = n1.max(n2);
    deg1.clear();
    deg1.extend((0..n1 as u32).map(|u| csr1.degree(u)));
    deg1.resize(n, 0);
    deg1.sort_unstable();
    deg2.clear();
    deg2.extend((0..n2 as u32).map(|u| csr2.degree(u)));
    deg2.resize(n, 0);
    deg2.sort_unstable();
    let diff: usize = deg1.iter().zip(&*deg2).map(|(&x, &y)| x.abs_diff(y)).sum();
    if node_term + diff.div_ceil(2) > tau {
        return BoundedSearch::Exceeds;
    }

    #[derive(Clone)]
    struct State {
        mapping: Vec<u32>,
        g: usize,
    }
    let mut heap: BinaryHeap<Reverse<(usize, usize, usize)>> = BinaryHeap::new();
    let mut states = vec![State {
        mapping: Vec::new(),
        g: 0,
    }];
    heap.push(Reverse((0, n1, 0)));

    let mut expanded = 0usize;
    while let Some(Reverse((f, _, idx))) = heap.pop() {
        if f > tau {
            return BoundedSearch::Exceeds; // smallest f exceeds τ => GED > τ
        }
        if expanded >= budget {
            return BoundedSearch::BudgetExhausted;
        }
        expanded += 1;
        let state = states[idx].clone();
        if state.mapping.len() == n1 {
            let total = state.g + closing_cost(csr2, &state.mapping, matched);
            if total <= tau {
                return BoundedSearch::Within(total);
            }
            continue;
        }
        reset(used, n2, false);
        for &v in &state.mapping {
            used[v as usize] = true;
        }
        let u = state.mapping.len() as u32;
        for v in 0..n2 as u32 {
            if used[v as usize] {
                continue;
            }
            let mut delta = 0;
            if csr1.label(u) != csr2.label(v) {
                delta += 1;
            }
            for (w, &mw) in state.mapping.iter().enumerate() {
                if csr1.has_edge(u, w as u32) != csr2.has_edge(v, mw) {
                    delta += 1;
                }
            }
            let mut mapping = state.mapping.clone();
            mapping.push(v);
            let g = state.g + delta;
            let f = if mapping.len() == n1 {
                g + closing_cost(csr2, &mapping, matched)
            } else {
                // `used` + v is exactly the mark set of the extended
                // mapping; undone right after the bound.
                used[v as usize] = true;
                let bound = remainder_bound(csr1, csr2, &mapping, used, rest1, rest2);
                used[v as usize] = false;
                g + bound
            };
            if f > tau {
                continue;
            }
            let depth = mapping.len();
            states.push(State { mapping, g });
            heap.push(Reverse((f, n1 - depth, states.len() - 1)));
        }
    }
    BoundedSearch::Exceeds
}

fn closing_cost(csr2: &CsrView, mapping: &[u32], matched: &mut Vec<bool>) -> usize {
    reset(matched, csr2.num_nodes(), false);
    for &v in mapping {
        matched[v as usize] = true;
    }
    let mut cost = csr2.num_nodes() - mapping.len();
    for (v, w) in csr2.edges() {
        if !matched[v as usize] || !matched[w as usize] {
            cost += 1;
        }
    }
    cost
}

fn remainder_bound(
    csr1: &CsrView,
    csr2: &CsrView,
    mapping: &[u32],
    used: &[bool],
    rest1: &mut Vec<ged_graph::Label>,
    rest2: &mut Vec<ged_graph::Label>,
) -> usize {
    let depth = mapping.len();
    rest1.clear();
    rest1.extend_from_slice(&csr1.labels()[depth..]);
    rest2.clear();
    rest2.extend(
        csr2.labels()
            .iter()
            .enumerate()
            .filter(|&(v, _)| !used[v])
            .map(|(_, &l)| l),
    );
    rest1.sort_unstable();
    rest2.sort_unstable();
    let (o1, o2) = sorted_multiset_surplus(rest1, rest2);
    let e1 = csr1
        .edges()
        .filter(|&(x, y)| (x as usize) >= depth || (y as usize) >= depth)
        .count();
    let e2 = csr2
        .edges()
        .filter(|&(x, y)| !used[x as usize] || !used[y as usize])
        .count();
    o1.max(o2) + e1.abs_diff(e2)
}

/// Fast feasible upper bound: round a (cheap) GEDGW coupling to a matching
/// and take the induced cost.
#[must_use]
pub fn fast_upper_bound(g1: &Graph, g2: &Graph) -> usize {
    fast_upper_bound_in(g1, g2, &mut GedWorkspace::new())
}

/// [`fast_upper_bound`] with the GEDGW solve and the rounding LSAP drawn
/// from `ws`. Bit-identical to the allocating version for any (possibly
/// dirty) workspace.
#[must_use]
pub fn fast_upper_bound_in(g1: &Graph, g2: &Graph, ws: &mut GedWorkspace) -> usize {
    let (a, b, _) = ordered(g1, g2);
    let solve = Gedgw::new(a, b)
        .with_options(crate::gedgw::GedgwOptions {
            max_iter: 15,
            tol: 1e-7,
        })
        .solve_in(ws);
    let (rows, cols) = solve.coupling.shape();
    ws.neg.resize_zeroed(rows, cols);
    for (o, &x) in ws
        .neg
        .as_mut_slice()
        .iter_mut()
        .zip(solve.coupling.as_slice())
    {
        // Sign flip, bit-identical to the `scale(-1.0)` of the allocating
        // path (IEEE-754 negation for every finite or zero value).
        *o = -x;
    }
    let assignment = lsap_min_in(&ws.neg, &mut ws.ot.lsap);
    let mapping = NodeMapping::new(assignment.row_to_col.iter().map(|&c| c as u32).collect());
    mapping.induced_cost(a, b)
}

/// Outcome of one candidate in the store-level exact pipeline
/// ([`prune_or_verify`]): matching outcomes always carry the **exact**
/// GED.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CandidateOutcome {
    /// The pivot-table upper bound proved membership (`ub_pivot ≤ τ`)
    /// before the GEDGW upper bound was even computed; the exact distance
    /// was then recovered by a search bounded by that pivot bound.
    AcceptedByPivot {
        /// The exact GED (`≤ τ`).
        ged: usize,
    },
    /// The feasible upper bound proved membership (`ub ≤ τ`) without any
    /// τ-bounded search; the exact distance was then recovered by a
    /// search bounded by the (tighter) upper bound itself.
    AcceptedEarly {
        /// The exact GED (`≤ τ`).
        ged: usize,
    },
    /// τ-bounded exact verification concluded `GED = ged ≤ τ`.
    Verified {
        /// The exact GED (`≤ τ`).
        ged: usize,
    },
    /// τ-bounded exact verification concluded `GED > τ`.
    Rejected,
    /// The node-expansion budget ran out before the candidate could be
    /// fully resolved. When the prune tier had already proven membership
    /// (`ub ≤ τ`) and only the exact-distance recovery was cut short,
    /// `accepted_ub` carries that feasible bound — the proof is
    /// preserved, not discarded; `None` means membership is genuinely
    /// unknown.
    BudgetExhausted {
        /// `Some(ub)` when `GED ≤ ub ≤ τ` is already proven (the
        /// candidate *is* a match, only its exact distance is unknown);
        /// `None` when the τ-bounded verification itself ran out.
        accepted_ub: Option<usize>,
    },
}

/// Tiers 2 + 3 of the exact pipeline for one filter survivor: the prune
/// tier computes the feasible [`fast_upper_bound`] and accepts when it is
/// `≤ tau` (recovering the exact distance with an `ub`-bounded search —
/// strictly cheaper than a τ-bounded one, and never wasted because
/// membership is already proven); otherwise the verify tier runs the
/// τ-bounded exact search. `budget` caps the node expansions of either
/// search (`usize::MAX` = unlimited).
///
/// This is the per-candidate unit [`crate::engine::GedQuery::RangeExact`]
/// parallelizes over a store; callers are expected to have already run
/// the lower-bound filter tier (the searches re-check the bounds, so
/// skipping the filter costs speed, never correctness).
#[must_use]
pub fn prune_or_verify(query: &Graph, cand: &Graph, tau: usize, budget: usize) -> CandidateOutcome {
    prune_or_verify_in(query, cand, tau, budget, &mut GedWorkspace::new())
}

/// [`prune_or_verify`] with both tiers running out of `ws` — the unit the
/// engine's store-level exact plan hands each worker thread.
#[must_use]
pub fn prune_or_verify_in(
    query: &Graph,
    cand: &Graph,
    tau: usize,
    budget: usize,
    ws: &mut GedWorkspace,
) -> CandidateOutcome {
    let ub = fast_upper_bound_in(query, cand, ws);
    if ub <= tau {
        // Membership is decided search-free; `GED ≤ ub` makes the
        // ub-bounded recovery search guaranteed to succeed (modulo budget).
        return match bounded_exact_ged_with_budget_in(query, cand, ub, budget, ws) {
            BoundedSearch::Within(ged) => CandidateOutcome::AcceptedEarly { ged },
            BoundedSearch::Exceeds => unreachable!("feasible bound: GED ≤ ub always holds"),
            BoundedSearch::BudgetExhausted => CandidateOutcome::BudgetExhausted {
                accepted_ub: Some(ub),
            },
        };
    }
    match bounded_exact_ged_with_budget_in(query, cand, tau, budget, ws) {
        BoundedSearch::Within(ged) => CandidateOutcome::Verified { ged },
        BoundedSearch::Exceeds => CandidateOutcome::Rejected,
        BoundedSearch::BudgetExhausted => CandidateOutcome::BudgetExhausted { accepted_ub: None },
    }
}

/// [`prune_or_verify`] with a triangle-inequality head start: when the
/// caller's pivot table already proved membership (`pivot_ub ≤ τ`,
/// [`ged_graph::PivotIndex::bounds`]), the GEDGW upper bound is skipped
/// entirely and the exact distance is recovered by a search bounded by
/// `pivot_ub` ([`CandidateOutcome::AcceptedByPivot`]); a budget
/// exhaustion during that recovery keeps the membership proof
/// (`accepted_ub = Some(pivot_ub)`). `pivot_ub = None` (or a bound above
/// τ, which the caller should not pass) falls back to [`prune_or_verify`]
/// unchanged.
#[must_use]
pub fn prune_or_verify_with_pivot(
    query: &Graph,
    cand: &Graph,
    tau: usize,
    budget: usize,
    pivot_ub: Option<usize>,
) -> CandidateOutcome {
    prune_or_verify_with_pivot_in(query, cand, tau, budget, pivot_ub, &mut GedWorkspace::new())
}

/// [`prune_or_verify_with_pivot`] running out of `ws` (see
/// [`prune_or_verify_in`]).
#[must_use]
pub fn prune_or_verify_with_pivot_in(
    query: &Graph,
    cand: &Graph,
    tau: usize,
    budget: usize,
    pivot_ub: Option<usize>,
    ws: &mut GedWorkspace,
) -> CandidateOutcome {
    if let Some(ub) = pivot_ub.filter(|&ub| ub <= tau) {
        return match bounded_exact_ged_with_budget_in(query, cand, ub, budget, ws) {
            BoundedSearch::Within(ged) => CandidateOutcome::AcceptedByPivot { ged },
            // A sound pivot table makes `GED ≤ ub` a theorem, so this arm
            // is unreachable; fall back to the regular tiers rather than
            // trusting a table the caller may have corrupted.
            BoundedSearch::Exceeds => prune_or_verify_in(query, cand, tau, budget, ws),
            BoundedSearch::BudgetExhausted => CandidateOutcome::BudgetExhausted {
                accepted_ub: Some(ub),
            },
        };
    }
    prune_or_verify_in(query, cand, tau, budget, ws)
}

/// The pivot-table distance oracle ([`ged_graph::PivotIndex`]): the exact
/// GED of the pair when an exact search fits the node-expansion `budget`,
/// otherwise the admissible `[lb, ub]` interval built from the signature
/// lower bounds and the feasible GEDGW upper bound.
///
/// The exact search is bounded by the feasible upper bound itself —
/// `GED ≤ ub` always holds, so the search can only return the optimum or
/// run out of budget; it is never cut off by a too-small threshold.
#[must_use]
pub fn pivot_distance(g1: &Graph, g2: &Graph, budget: usize) -> PivotDistance {
    pivot_distance_in(g1, g2, budget, &mut GedWorkspace::new())
}

/// [`pivot_distance`] running out of `ws`, so the engine's pivot-table
/// (re)builds reuse one workspace across every oracle call.
#[must_use]
pub fn pivot_distance_in(
    g1: &Graph,
    g2: &Graph,
    budget: usize,
    ws: &mut GedWorkspace,
) -> PivotDistance {
    let lb = label_set_lower_bound(g1, g2).max(degree_sequence_lower_bound(g1, g2));
    if lb == 0 && g1 == g2 {
        return PivotDistance::exact(0);
    }
    let ub = fast_upper_bound_in(g1, g2, ws);
    match bounded_exact_ged_with_budget_in(g1, g2, ub, budget, ws) {
        BoundedSearch::Within(ged) => PivotDistance::exact(ged),
        // `Exceeds` cannot happen for a feasible bound; treat it like an
        // exhausted budget instead of unwinding a store-level query.
        BoundedSearch::Exceeds | BoundedSearch::BudgetExhausted => PivotDistance::interval(lb, ub),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_graph::generate;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn exact(g1: &Graph, g2: &Graph) -> usize {
        // τ-bounded search with an infinite budget is plain exact A*.
        bounded_exact_ged(g1, g2, usize::MAX / 2).expect("unbounded always succeeds")
    }

    #[test]
    fn bounded_matches_exact_within_threshold() {
        let mut rng = SmallRng::seed_from_u64(201);
        for _ in 0..25 {
            let g1 = generate::random_connected(rng.gen_range(3..=6), 1, &[0.5, 0.5], &mut rng);
            let g2 = generate::random_connected(rng.gen_range(3..=6), 1, &[0.5, 0.5], &mut rng);
            let d = exact(&g1, &g2);
            assert_eq!(bounded_exact_ged(&g1, &g2, d), Some(d));
            if d > 0 {
                assert_eq!(bounded_exact_ged(&g1, &g2, d - 1), None);
            }
            assert_eq!(bounded_exact_ged(&g1, &g2, d + 3), Some(d));
        }
    }

    #[test]
    fn upper_bound_is_feasible() {
        let mut rng = SmallRng::seed_from_u64(202);
        for _ in 0..15 {
            let g1 = generate::random_connected(5, 1, &[0.5, 0.5], &mut rng);
            let g2 = generate::random_connected(6, 2, &[0.5, 0.5], &mut rng);
            assert!(fast_upper_bound(&g1, &g2) >= exact(&g1, &g2));
        }
    }

    #[test]
    fn budget_caps_expansions_and_unlimited_budget_matches_unbudgeted() {
        let mut rng = SmallRng::seed_from_u64(205);
        for _ in 0..10 {
            let g1 = generate::random_connected(rng.gen_range(4..=6), 1, &[0.5, 0.5], &mut rng);
            let g2 = generate::random_connected(rng.gen_range(4..=6), 1, &[0.5, 0.5], &mut rng);
            let d = exact(&g1, &g2);
            assert_eq!(
                bounded_exact_ged_with_budget(&g1, &g2, d, usize::MAX),
                BoundedSearch::Within(d)
            );
            if d > 0 {
                assert_eq!(
                    bounded_exact_ged_with_budget(&g1, &g2, d - 1, usize::MAX),
                    BoundedSearch::Exceeds
                );
                // A one-expansion budget cannot decide a nonzero-GED pair
                // whose bounds don't already settle it.
                let one = bounded_exact_ged_with_budget(&g1, &g2, d, 1);
                assert!(
                    matches!(one, BoundedSearch::BudgetExhausted | BoundedSearch::Exceeds),
                    "one expansion can at most prove Exceeds via bounds, got {one:?}"
                );
            }
        }
    }

    #[test]
    fn degree_bound_prefilters_without_search() {
        // Star vs path: label-set bound is 0, degree bound is ≥ 2 — the
        // pre-filter must prove Exceeds for τ = 1 with zero expansions
        // (observable through a zero budget still returning Exceeds).
        let star = Graph::unlabeled_from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let path = Graph::unlabeled_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(
            crate::lower_bound::label_set_lower_bound(&star, &path),
            0,
            "label bound must be blind to this pair"
        );
        assert_eq!(
            bounded_exact_ged_with_budget(&star, &path, 1, 0),
            BoundedSearch::Exceeds,
            "degree bound must reject before any expansion"
        );
        assert_eq!(bounded_exact_ged(&star, &path, 1), None);
    }

    #[test]
    fn prune_or_verify_outcomes_carry_exact_distances() {
        let mut rng = SmallRng::seed_from_u64(206);
        for _ in 0..20 {
            let g1 =
                generate::random_connected(rng.gen_range(4..=6), 1, &[0.5, 0.3, 0.2], &mut rng);
            let g2 =
                generate::random_connected(rng.gen_range(4..=6), 1, &[0.5, 0.3, 0.2], &mut rng);
            let d = exact(&g1, &g2);
            for tau in [d.saturating_sub(1), d, d + 2] {
                match prune_or_verify(&g1, &g2, tau, usize::MAX) {
                    CandidateOutcome::AcceptedByPivot { .. } => {
                        unreachable!("no pivot certificate was supplied")
                    }
                    CandidateOutcome::AcceptedEarly { ged }
                    | CandidateOutcome::Verified { ged } => {
                        assert_eq!(ged, d, "matching outcomes must be exact");
                        assert!(d <= tau, "a match implies GED ≤ τ");
                    }
                    CandidateOutcome::Rejected => {
                        assert!(d > tau, "rejection implies GED > τ");
                    }
                    CandidateOutcome::BudgetExhausted { .. } => {
                        unreachable!("unlimited budget never exhausts")
                    }
                }
            }
        }
    }

    #[test]
    fn prune_or_verify_accepts_identical_graphs_early() {
        let mut rng = SmallRng::seed_from_u64(207);
        let g = generate::random_connected(6, 1, &[0.5, 0.5], &mut rng);
        // GED(g, g) = 0 and the rounded GEDGW bound of an identical pair
        // is 0, so the prune tier fires with the exact distance.
        assert_eq!(
            prune_or_verify(&g, &g, 3, usize::MAX),
            CandidateOutcome::AcceptedEarly { ged: 0 }
        );
        // A zero budget surfaces as BudgetExhausted — never a wrong
        // answer — and the prune tier's membership proof survives it.
        assert_eq!(
            prune_or_verify(&g, &g, 3, 0),
            CandidateOutcome::BudgetExhausted {
                accepted_ub: Some(0)
            }
        );
    }

    #[test]
    fn stats_total_closes() {
        let stats = ExactSearchStats {
            pruned_shard: 7,
            pruned_pivot: 5,
            filtered: 3,
            accepted_pivot: 6,
            accepted_early: 2,
            verified: 4,
            budget_exceeded: 1,
            pivot_distances: 9,
        };
        assert_eq!(
            stats.total(),
            28,
            "every tier participates in total(), the overlay does not"
        );
        let line = stats.to_string();
        assert!(!line.contains('\n'), "one-line breakdown");
        for field in [
            "shard=7",
            "pivot=5",
            "filtered=3",
            "accept_pivot=6",
            "accept_ub=2",
            "verified=4",
            "budget=1",
            "total=28",
            "pivot_distances=9",
        ] {
            assert!(line.contains(field), "{line} is missing {field}");
        }
    }

    #[test]
    fn pivot_distance_is_exact_until_the_budget_bites() {
        let mut rng = SmallRng::seed_from_u64(208);
        for _ in 0..15 {
            let g1 =
                generate::random_connected(rng.gen_range(4..=6), 1, &[0.5, 0.3, 0.2], &mut rng);
            let g2 =
                generate::random_connected(rng.gen_range(4..=6), 1, &[0.5, 0.3, 0.2], &mut rng);
            let d = exact(&g1, &g2);

            let unlimited = pivot_distance(&g1, &g2, usize::MAX);
            assert!(unlimited.is_exact(), "unlimited budgets compute exactly");
            assert_eq!(unlimited.lb(), d);

            // A zero budget degrades to the admissible [lb, ub] interval.
            let strangled = pivot_distance(&g1, &g2, 0);
            assert!(
                strangled.lb() <= d && d <= strangled.ub(),
                "interval [{}, {}] must contain {d}",
                strangled.lb(),
                strangled.ub()
            );
        }
        // Identical graphs short-circuit to exact 0 at any budget.
        let g = generate::random_connected(5, 1, &[0.5, 0.5], &mut rng);
        assert_eq!(pivot_distance(&g, &g, 0), PivotDistance::exact(0));
    }

    #[test]
    fn pivot_accept_recovers_the_exact_distance() {
        let mut rng = SmallRng::seed_from_u64(209);
        for _ in 0..15 {
            let g1 =
                generate::random_connected(rng.gen_range(4..=6), 1, &[0.5, 0.3, 0.2], &mut rng);
            let g2 =
                generate::random_connected(rng.gen_range(4..=6), 1, &[0.5, 0.3, 0.2], &mut rng);
            let d = exact(&g1, &g2);
            let tau = d + 2;
            // A (sound) pivot certificate: any ub with d ≤ ub ≤ τ.
            match prune_or_verify_with_pivot(&g1, &g2, tau, usize::MAX, Some(d + 1)) {
                CandidateOutcome::AcceptedByPivot { ged } => {
                    assert_eq!(ged, d, "the recovery search must return the optimum");
                }
                other => panic!("a within-τ pivot ub must accept, got {other:?}"),
            }
            // Without a certificate the regular tiers decide, identically
            // to prune_or_verify.
            assert_eq!(
                prune_or_verify_with_pivot(&g1, &g2, tau, usize::MAX, None),
                prune_or_verify(&g1, &g2, tau, usize::MAX)
            );
            // A zero budget surfaces the preserved membership proof.
            assert_eq!(
                prune_or_verify_with_pivot(&g1, &g2, tau, 0, Some(d + 1)),
                CandidateOutcome::BudgetExhausted {
                    accepted_ub: Some(d + 1)
                }
            );
        }
    }
}
