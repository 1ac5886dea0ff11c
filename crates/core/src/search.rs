//! Threshold-based graph similarity search (the application of Section 2
//! of the paper).
//!
//! Given a query graph and a threshold `τ`, retrieve every database graph
//! whose GED to the query is `≤ τ`. The classical pipeline is
//! *filter-then-verify*:
//!
//! 1. **filter** — cheap lower bounds (label-set, degree-sequence) discard
//!    candidates whose bound already exceeds `τ`;
//! 2. **branch** — the exact search's own root bound (one LSAP, below)
//!    discards candidates whose bound exceeds `τ`;
//! 3. **verify** — the surviving candidates run a τ-bounded exact A\*
//!    from that already-bounded root, which aborts as soon as the optimum
//!    provably exceeds `τ`.
//!
//! Setting `τ = ∞` degrades to exact GED computation, exactly as the paper
//! notes for Nass / AStar-BMao; the engine's
//! [`crate::engine::GedQuery::RangeExact`] accepts `τ = +∞` with exactly
//! that full-scan meaning.
//!
//! The tiers are exposed individually — [`label_set_lower_bound`] /
//! [`degree_sequence_lower_bound`] (re-exported from
//! [`crate::lower_bound`]), [`crate::lower_bound::branch_lower_bound`]
//! and [`bounded_exact_ged_with_budget`] — and composed per candidate by
//! [`prune_or_verify_in`], which the store-level
//! [`crate::engine::GedQuery::RangeExact`] and join plans run after their
//! signature-fed filter tiers. Its [`CandidateOutcome`]s always carry
//! exact distances, and the branch and verify tiers share one root LSAP.
//!
//! # The exact search and its bound
//!
//! [`bounded_exact_ged`] is A\* over node maps of the smaller graph `G1`
//! into `G2`. Under uniform costs with `|V1| ≤ |V2|` some optimal edit
//! path deletes no `G1` node, so every `G1` node is substituted. A state
//! maps `G1`'s first `d` nodes by `φ`; its cost `g` counts their relabels
//! and the edge mismatches among them. A complete map adds the insertion
//! of every unmapped `G2` node and of every `G2` edge touching one.
//!
//! The bound on the rest is the anchored LSAP bound
//! ([`crate::lower_bound::completion_lower_bound`]). Let `U1` and `U2` be
//! the unmapped nodes, `r1(u)` and `r2(v)` a node's edges into them, and
//! pad `U1` with dummy rows up to `|U2|`. A completion is a bijection `ψ`
//! of the padded `U1` onto `U2` (a dummy row's node is inserted). For each
//! `u ↦ v` it pays:
//!
//! * the relabel `[l(u) ≠ l(v)]`; a dummy row pays the insertion, 1;
//! * the edges to mapped nodes, which `φ` already fixes:
//!   `Σ_{w<d} [A1(u, w) ≠ A2(v, φ(w))]`; a dummy row pays every edge
//!   from `v` to a mapped image;
//! * a share of the edges among unmapped nodes. Those cost
//!   `|E(U1)| + |E(U2)| − 2·kept`, with `Σ r1 = 2|E(U1)|`,
//!   `Σ r2 = 2|E(U2)|`, and `u ↦ v` keeping at most `min(r1(u), r2(v))`
//!   of its edges, so they cost at least
//!   `Σ ½(r1(u) + r2(v)) − min(r1(u), r2(v)) = Σ ½|r1(u) − r2(v)|`; a
//!   dummy row pays `½ r2(v)`.
//!
//! So every completion costs at least the sum of these pair costs over
//! its assignment, hence at least their LSAP optimum: the bound never
//! overestimates. Every pair cost is a multiple of ½, so the LSAP is exact
//! and its ceiling still bounds the integral cost. At `d = 0` it is the
//! branch bound ([`crate::lower_bound::branch_lower_bound`]); at
//! `d = |V1|` it is the exact closing cost. With an admissible bound, A\*
//! pops a complete map only at the optimum, and a state whose
//! `g + bound` exceeds `τ` has no completion within `τ`, so dropping it
//! loses no answer.
//!
//! The LSAP bound dominates the label-multiset, edge-count and
//! degree-sequence bounds: its node part is at least the label surplus,
//! and its edge part `Σ ½|r1(u) − r2(v)|` is at least the edge-count gap
//! and at least half the sorted degree sequences' distance. So
//! [`bounded_exact_ged`] keeps those as free pre-filters for callers that
//! have not filtered, while [`prune_or_verify_in`], whose callers have, goes
//! straight to the root LSAP. Both then start the A\* from a root keyed
//! by its own bound, so they expand the same states in the same order.
//!
//! A child enters the open list under its parent's bound, which every
//! completion of the child also respects, and gets its own LSAP bound
//! only when it reaches the front; if that raises its key, it goes back.
//! The search thus solves one LSAP per state it reaches, not per state it
//! generates.
//!
//! [`label_set_lower_bound`]: crate::lower_bound::label_set_lower_bound
//! [`degree_sequence_lower_bound`]: crate::lower_bound::degree_sequence_lower_bound

use crate::gedgw::Gedgw;
use crate::lower_bound::{
    anchored_lower_bound, ceil_bound, degree_sequence_lower_bound, label_set_lower_bound,
    sorted_multiset_surplus,
};
use crate::pairs::ordered;
use crate::workspace::{reset, GedWorkspace};
use ged_graph::{CsrView, Graph, NodeMapping, PivotDistance};
use ged_linalg::lsap_min_in;
use std::cmp::Reverse;
use std::fmt;

/// Statistics of one τ-exact filter–verify plan —
/// [`crate::engine::GedQuery::RangeExact`], or a join
/// ([`crate::engine::GedQuery::SelfJoin`] / [`crate::engine::GedQuery::Join`])
/// whose candidates are pairs: which tier settled each candidate. Every
/// candidate lands in exactly one tier, so [`ExactSearchStats::total`]
/// always equals the number examined — the store size for an exact range
/// query, `n·(n−1)/2` for a self-join over `n` graphs, `n·m` for a
/// cross-store join — whatever the tiers decided. The engine's
/// approximate store search reports the analogous
/// [`crate::engine::SearchStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExactSearchStats {
    /// Candidates discarded wholesale at the shard tier: the aggregate
    /// lower bound of their unit already exceeded `τ`, so no per-graph
    /// metadata was touched. A range query's unit is one shard against
    /// the query (always zero for flat stores, see
    /// [`ged_graph::shard::ShardedStore`]); a join's is a unit×unit block
    /// of pairs (shard×shard, or flat-store size ranges).
    pub pruned_shard: usize,
    /// Join pairs discarded wholesale at the band tier: candidates are
    /// generated in signature-sort (node-count) order, so once one pair's
    /// size difference exceeds `τ` the whole remaining contiguous band of
    /// larger partners is discarded by arithmetic. Always zero for
    /// [`crate::engine::GedQuery::RangeExact`].
    pub pruned_band: usize,
    /// Candidates discarded by the lower bound of their shard's pivot
    /// block (`|d(q,p) − d(p,g)| > τ` for some pivot `p`) before the
    /// signature bounds were even consulted. Always zero for flat stores
    /// and for sharded stores whose blocks
    /// [`crate::engine::GedEngine::sync_sharded_pivots`] has not synced
    /// at the engine's target.
    pub pruned_pivot: usize,
    /// Candidates discarded by the signature lower bounds (label
    /// multiset, degree sequence). A negative `τ` accounts every
    /// candidate here (nothing can match).
    pub filtered: usize,
    /// Join pairs answered from an already-verified structurally
    /// identical pair: symmetric/duplicate pairs canonicalize to the same
    /// representative (same orientation the prediction cache keys on),
    /// which is verified once and its outcome shared. Always zero for
    /// [`crate::engine::GedQuery::RangeExact`].
    pub cache_hits: usize,
    /// Candidates discarded by the branch bound (the exact search's root
    /// bound, [`crate::lower_bound::branch_lower_bound`]) before their
    /// search expanded a state.
    pub pruned_branch: usize,
    /// Candidates whose membership their shard's pivot-block upper bound
    /// (`d(q,p) + d(p,g) ≤ τ`) certified before the branch tier ran (the
    /// exact distance is then recovered by a search bounded by that pivot
    /// bound). Always zero wherever [`ExactSearchStats::pruned_pivot`] is.
    pub accepted_pivot: usize,
    /// Candidates that required bounded exact verification (including
    /// those the verification rejected).
    pub verified: usize,
    /// Candidates whose bounded search exhausted its node-expansion
    /// budget before reaching a decision (see
    /// [`crate::engine::GedEngineBuilder::verify_budget`]); each is also
    /// listed in its result's `budget_exhausted`, never silently dropped.
    /// Always zero when the budget is unlimited.
    pub budget_exceeded: usize,
    /// Query-to-pivot distances the oracle computed to arm the shards'
    /// pivot blocks: a block's pivot count per armed shard (per left row
    /// of a cross-store join), 0 for a shard whose table row a stored
    /// query reused, and 0 for shards the shard tier skipped before
    /// arming them. An overlay count of work, **not** an accounting tier
    /// (outside [`ExactSearchStats::total`]).
    pub pivot_distances: usize,
}

impl ExactSearchStats {
    /// Total candidates accounted for — the per-tier counts always close
    /// to the number of candidates examined, whichever tiers fired.
    #[must_use]
    pub fn total(&self) -> usize {
        self.pruned_shard
            + self.pruned_band
            + self.pruned_pivot
            + self.filtered
            + self.cache_hits
            + self.pruned_branch
            + self.accepted_pivot
            + self.verified
            + self.budget_exceeded
    }

    /// Accounts one prune/verify-phase [`CandidateOutcome`] to its tier —
    /// the single outcome→tier mapping every exact plan uses, so
    /// accounting cannot drift between plans. (`Rejected` still counts
    /// as `verified`: the candidate consumed a bounded exact search.)
    pub fn record(&mut self, outcome: &CandidateOutcome) {
        match outcome {
            CandidateOutcome::PrunedByBranch => self.pruned_branch += 1,
            CandidateOutcome::AcceptedByPivot { .. } => self.accepted_pivot += 1,
            CandidateOutcome::Verified { .. } | CandidateOutcome::Rejected => self.verified += 1,
            CandidateOutcome::BudgetExhausted { .. } => self.budget_exceeded += 1,
        }
    }
}

impl fmt::Display for ExactSearchStats {
    /// One-line tier breakdown, filter order left to right:
    /// `shard=.. band=.. pivot=.. filtered=.. cache=.. accept_pivot=..
    /// branch=.. verified=.. budget=.. total=.. pivot_distances=..`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard={} band={} pivot={} filtered={} cache={} accept_pivot={} branch={} \
             verified={} budget={} total={} pivot_distances={}",
            self.pruned_shard,
            self.pruned_band,
            self.pruned_pivot,
            self.filtered,
            self.cache_hits,
            self.accepted_pivot,
            self.pruned_branch,
            self.verified,
            self.budget_exceeded,
            self.total(),
            self.pivot_distances
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
/// otherwise. A* under the anchored LSAP bound, which never overestimates
/// the cost of completing a state (the [module docs](self) give the
/// argument), aborting any branch whose `f`-value exceeds `tau` — far
/// cheaper than unbounded exact search for small thresholds. Candidate
/// pairs are pre-filtered with the label-set and degree-sequence bounds
/// and then the root's LSAP bound, so a provably distant pair never
/// expands a state at all.
#[must_use]
pub fn bounded_exact_ged(g1: &Graph, g2: &Graph, tau: usize) -> Option<usize> {
    match bounded_exact_ged_with_budget(g1, g2, tau, usize::MAX) {
        BoundedSearch::Within(ged) => Some(ged),
        // A `usize::MAX` expansion budget can never actually exhaust.
        BoundedSearch::Exceeds | BoundedSearch::BudgetExhausted => None,
    }
}

/// [`bounded_exact_ged`] with a node-expansion budget: the search gives up
/// with [`BoundedSearch::BudgetExhausted`] after expanding `budget` states
/// popped from the open list (a state popped only to have its bound
/// raised and sent back is not expanded), so one pathological pair cannot
/// blow up a store-level query. `budget = usize::MAX` is effectively
/// unlimited and recovers [`bounded_exact_ged`] exactly.
#[must_use]
pub fn bounded_exact_ged_with_budget(
    g1: &Graph,
    g2: &Graph,
    tau: usize,
    budget: usize,
) -> BoundedSearch {
    bounded_exact_ged_with_budget_in(g1, g2, tau, budget, &mut GedWorkspace::new())
}

/// One A\* state: its cost so far, where its mapping lies in the
/// workspace's arena, and whether its open-list key is already its own
/// anchored bound (or, at full depth, its exact cost) rather than its
/// parent's.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SearchState {
    start: usize,
    depth: usize,
    g: usize,
    refined: bool,
}

/// [`bounded_exact_ged_with_budget`] with every buffer drawn from `ws`:
/// both graphs read through flat [`CsrView`]s rebuilt into the workspace,
/// the pre-filter and bound scratch, the anchored bound's cost matrix and
/// LSAP scratch, and the open list and state arena, so a warm call
/// allocates only when a search outgrows every earlier one. The state
/// traversal (expansion order, heap tie-breaks, budget accounting)
/// depends on the pair alone, so results match for any (possibly dirty)
/// workspace.
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

    // Cheap pre-filters first: a bound above τ proves GED > τ without
    // an LSAP. The root's anchored bound dominates both, but a caller that
    // has not filtered (an oracle's nested loop) rejects most pairs here:
    // over all pairs of an AIDS-like sample at τ = 2 they made the loop
    // 5× faster. The label surplus is shared by both, so it is merged once.
    rest1.clear();
    rest1.extend_from_slice(csr1.labels());
    rest1.sort_unstable();
    rest2.clear();
    rest2.extend_from_slice(csr2.labels());
    rest2.sort_unstable();
    let (o1, o2) = sorted_multiset_surplus(rest1, rest2);
    let node_term = o1.max(o2);
    let edge_gap = csr1.num_edges().abs_diff(csr2.num_edges());
    if node_term + edge_gap > tau {
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
    if node_term + edge_gap.max(diff.div_ceil(2)) > tau {
        return BoundedSearch::Exceeds;
    }
    search_from_root(tau, budget, ws).unwrap_or(BoundedSearch::Exceeds)
}

/// The A\* of [`bounded_exact_ged_with_budget_in`] over the pair in `ws`'s
/// CSR views: `None` when the root's anchored bound (the branch bound)
/// exceeds `tau`, otherwise the search from the root keyed by that bound.
fn search_from_root(tau: usize, budget: usize, ws: &mut GedWorkspace) -> Option<BoundedSearch> {
    let GedWorkspace {
        ot,
        m,
        csr1,
        csr2,
        used,
        matched,
        anchored,
        open,
        states,
        arena,
        child,
        ..
    } = ws;
    let branch = anchored_lower_bound(csr1, csr2, &[], anchored, m, &mut ot.lsap);
    let root = ceil_bound(branch);
    if root > tau {
        return None;
    }
    let n1 = csr1.num_nodes();
    let n2 = csr2.num_nodes();
    open.clear();
    states.clear();
    arena.clear();
    states.push(SearchState {
        refined: true,
        ..SearchState::default()
    });
    open.push(Reverse((root, n1, 0)));

    let mut expanded = 0usize;
    while let Some(Reverse((f, _, idx))) = open.pop() {
        if f > tau {
            return Some(BoundedSearch::Exceeds); // smallest f exceeds τ => GED > τ
        }
        let SearchState {
            start,
            depth,
            g,
            refined,
        } = states[idx];
        child.clear();
        child.extend_from_slice(&arena[start..start + depth]);
        if !refined {
            // A state enters the open list under its parent's bound and
            // gets its own anchored bound only when it reaches the front,
            // so children the search never reaches cost no LSAP. A raised
            // bound sends it back to wait its turn.
            states[idx].refined = true;
            let bound = g + ceil_bound(anchored_lower_bound(
                csr1,
                csr2,
                child,
                anchored,
                m,
                &mut ot.lsap,
            ));
            if bound > f {
                if bound <= tau {
                    open.push(Reverse((bound, n1 - depth, idx)));
                }
                continue;
            }
        }
        if expanded >= budget {
            return Some(BoundedSearch::BudgetExhausted);
        }
        expanded += 1;
        if depth == n1 {
            let total = g + closing_cost(csr2, child, matched);
            if total <= tau {
                return Some(BoundedSearch::Within(total));
            }
            continue;
        }
        reset(used, n2, false);
        for &v in child.iter() {
            used[v as usize] = true;
        }
        let u = depth as u32;
        for v in 0..n2 as u32 {
            if used[v as usize] {
                continue;
            }
            let mut delta = usize::from(csr1.label(u) != csr2.label(v));
            for (w, &mw) in child.iter().enumerate() {
                if csr1.has_edge(u, w as u32) != csr2.has_edge(v, mw) {
                    delta += 1;
                }
            }
            let g = g + delta;
            if g > tau {
                continue;
            }
            child.push(v);
            // A complete mapping's cost is exact. Any other child waits
            // under its parent's bound, which bounds every completion of
            // the child too.
            let (f, refined) = if depth + 1 == n1 {
                (g + closing_cost(csr2, child, matched), true)
            } else {
                (g.max(f), false)
            };
            if f <= tau {
                states.push(SearchState {
                    start: arena.len(),
                    depth: depth + 1,
                    g,
                    refined,
                });
                arena.extend_from_slice(child);
                open.push(Reverse((f, n1 - depth - 1, states.len() - 1)));
            }
            child.pop();
        }
    }
    Some(BoundedSearch::Exceeds)
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

/// Outcome of one candidate in the store-level exact pipeline
/// ([`prune_or_verify_in`]): matching outcomes always carry the **exact**
/// GED.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CandidateOutcome {
    /// The branch bound ([`crate::lower_bound::branch_lower_bound`],
    /// the exact search's root bound) proved `GED > τ` before the search
    /// expanded a state.
    PrunedByBranch,
    /// The pivot-table upper bound proved membership (`ub_pivot ≤ τ`)
    /// before the branch tier ran; the exact distance was then recovered
    /// by a search bounded by that pivot bound.
    AcceptedByPivot {
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
    /// fully resolved. When a pivot certificate had already proven
    /// membership (`ub ≤ τ`) and only the exact-distance recovery was
    /// cut short, `accepted_ub` carries that bound — the proof is
    /// preserved, not discarded; `None` means membership is genuinely
    /// unknown.
    BudgetExhausted {
        /// `Some(ub)` when a pivot certificate proved `GED ≤ ub ≤ τ` (the
        /// candidate *is* a match, only its exact distance is unknown);
        /// `None` when the τ-bounded verification itself ran out.
        accepted_ub: Option<usize>,
    },
}

/// Tiers 2–3 of the exact pipeline for one filter survivor: the branch
/// tier rejects when the ceiling of
/// [`branch_lower_bound`](crate::lower_bound::branch_lower_bound)
/// exceeds `tau` ([`CandidateOutcome::PrunedByBranch`]); otherwise the
/// verify tier runs the τ-bounded exact search from that root bound, so
/// the root LSAP is solved once. `budget` caps the search's node
/// expansions (`usize::MAX` = unlimited); every buffer comes from `ws`.
///
/// The outcome is [`bounded_exact_ged_with_budget`]'s verdict at the same
/// `tau` and `budget`: `Within(d)` is `Verified { ged: d }`, `Exceeds`
/// is `PrunedByBranch` or `Rejected`, and `BudgetExhausted` is
/// `BudgetExhausted { accepted_ub: None }`.
///
/// This is the per-candidate unit the engine's exact plans
/// ([`crate::engine::GedQuery::RangeExact`] and the joins) parallelize,
/// one workspace per worker thread; callers are expected to have already
/// run the lower-bound filter tier (the branch bound dominates it, so
/// skipping the filter costs speed, never correctness).
#[must_use]
pub fn prune_or_verify_in(
    query: &Graph,
    cand: &Graph,
    tau: usize,
    budget: usize,
    ws: &mut GedWorkspace,
) -> CandidateOutcome {
    let (a, b, _) = ordered(query, cand);
    ws.csr1.rebuild_from(a);
    ws.csr2.rebuild_from(b);
    match search_from_root(tau, budget, ws) {
        None => CandidateOutcome::PrunedByBranch,
        Some(BoundedSearch::Within(ged)) => CandidateOutcome::Verified { ged },
        Some(BoundedSearch::Exceeds) => CandidateOutcome::Rejected,
        Some(BoundedSearch::BudgetExhausted) => {
            CandidateOutcome::BudgetExhausted { accepted_ub: None }
        }
    }
}

/// [`prune_or_verify_in`] with a triangle-inequality head start: when the
/// caller's pivot table already proved membership (`pivot_ub ≤ τ`,
/// [`ged_graph::PivotIndex::bounds`]), the branch tier is skipped and the
/// exact distance is recovered by a search bounded by `pivot_ub`
/// ([`CandidateOutcome::AcceptedByPivot`]); a budget exhaustion during
/// that recovery keeps the membership proof (`accepted_ub =
/// Some(pivot_ub)`). `pivot_ub = None` (or a bound above τ, which the
/// caller should not pass) falls back to [`prune_or_verify_in`] unchanged.
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

/// [`pivot_distance_in`]'s feasible upper bound: round a (cheap) GEDGW
/// coupling to a matching and take the induced cost.
fn fast_upper_bound_in(g1: &Graph, g2: &Graph, ws: &mut GedWorkspace) -> usize {
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
        *o = -x;
    }
    let assignment = lsap_min_in(&ws.neg, &mut ws.ot.lsap);
    let mapping = NodeMapping::new(assignment.row_to_col.iter().map(|&c| c as u32).collect());
    mapping.induced_cost(a, b)
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
        let mut ws = GedWorkspace::new();
        for _ in 0..20 {
            let g1 =
                generate::random_connected(rng.gen_range(4..=6), 1, &[0.5, 0.3, 0.2], &mut rng);
            let g2 =
                generate::random_connected(rng.gen_range(4..=6), 1, &[0.5, 0.3, 0.2], &mut rng);
            let d = exact(&g1, &g2);
            for tau in [d.saturating_sub(1), d, d + 2] {
                match prune_or_verify_in(&g1, &g2, tau, usize::MAX, &mut ws) {
                    CandidateOutcome::AcceptedByPivot { .. } => {
                        unreachable!("no pivot certificate was supplied")
                    }
                    CandidateOutcome::Verified { ged } => {
                        assert_eq!(ged, d, "matching outcomes must be exact");
                        assert!(d <= tau, "a match implies GED ≤ τ");
                    }
                    CandidateOutcome::PrunedByBranch | CandidateOutcome::Rejected => {
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
    fn prune_or_verify_verifies_identical_graphs() {
        let mut rng = SmallRng::seed_from_u64(207);
        let g = generate::random_connected(6, 1, &[0.5, 0.5], &mut rng);
        let mut ws = GedWorkspace::new();
        // GED(g, g) = 0: the branch bound cannot prune it, and the search
        // verifies the exact distance.
        assert_eq!(
            prune_or_verify_in(&g, &g, 3, usize::MAX, &mut ws),
            CandidateOutcome::Verified { ged: 0 }
        );
        // A zero budget surfaces as BudgetExhausted — never a wrong
        // answer — with no membership proof, as only a pivot certificate
        // carries one.
        assert_eq!(
            prune_or_verify_in(&g, &g, 3, 0, &mut ws),
            CandidateOutcome::BudgetExhausted { accepted_ub: None }
        );
    }

    #[test]
    fn stats_total_closes() {
        let stats = ExactSearchStats {
            pruned_shard: 7,
            pruned_band: 2,
            pruned_pivot: 5,
            filtered: 3,
            cache_hits: 10,
            pruned_branch: 8,
            accepted_pivot: 6,
            verified: 4,
            budget_exceeded: 1,
            pivot_distances: 9,
        };
        assert_eq!(
            stats.total(),
            46,
            "every tier participates in total(), the overlay does not"
        );
        let line = stats.to_string();
        assert!(!line.contains('\n'), "one-line breakdown");
        for field in [
            "shard=7",
            "band=2",
            "pivot=5",
            "filtered=3",
            "cache=10",
            "accept_pivot=6",
            "branch=8",
            "verified=4",
            "budget=1",
            "total=46",
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
        let mut ws = GedWorkspace::new();
        for _ in 0..15 {
            let g1 =
                generate::random_connected(rng.gen_range(4..=6), 1, &[0.5, 0.3, 0.2], &mut rng);
            let g2 =
                generate::random_connected(rng.gen_range(4..=6), 1, &[0.5, 0.3, 0.2], &mut rng);
            let d = exact(&g1, &g2);
            let tau = d + 2;
            // A (sound) pivot certificate: any ub with d ≤ ub ≤ τ.
            match prune_or_verify_with_pivot_in(&g1, &g2, tau, usize::MAX, Some(d + 1), &mut ws) {
                CandidateOutcome::AcceptedByPivot { ged } => {
                    assert_eq!(ged, d, "the recovery search must return the optimum");
                }
                other => panic!("a within-τ pivot ub must accept, got {other:?}"),
            }
            // Without a certificate the regular tiers decide, identically
            // to prune_or_verify_in.
            assert_eq!(
                prune_or_verify_with_pivot_in(&g1, &g2, tau, usize::MAX, None, &mut ws),
                prune_or_verify_in(&g1, &g2, tau, usize::MAX, &mut ws)
            );
            // A zero budget surfaces the preserved membership proof.
            assert_eq!(
                prune_or_verify_with_pivot_in(&g1, &g2, tau, 0, Some(d + 1), &mut ws),
                CandidateOutcome::BudgetExhausted {
                    accepted_ub: Some(d + 1)
                }
            );
        }
    }
}
