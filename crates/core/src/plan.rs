//! The unified tiered query pipeline.
//!
//! Every store-level plan of [`GedEngine`] — top-k, range, exact range,
//! and matrix, over flat [`GraphStore`]s and
//! [`ShardedStore`](ged_graph::ShardedStore)s alike, each passed as a
//! [`StoreRef`] — runs through the **one** candidate pipeline of this
//! module. A flat store is simply the one-shard special case: both store
//! kinds are decomposed into `ShardUnit`s (a flat store yields a single
//! unit with aggregate lower bound 0, so its shard tier can never fire),
//! and from there the per-shape plan bodies are shared verbatim.
//!
//! # Filter tiers
//!
//! Every stage a candidate can be decided by, in the order the plans
//! apply them:
//!
//! ```text
//!            ┌──────────┐   ┌────────────────────────────┐   ┌─────────────────┐   ┌────────┐   ┌────────┐
//!  store ──▶ │  shard   │──▶│ label · degree · pivot_lb  │──▶│ pivot_ub_accept │──▶│ branch │──▶│ verify │
//!            │ aggregate│   │  (commutative discards)    │   │                 │   │        │   │        │
//!            └──────────┘   └────────────────────────────┘   └─────────────────┘   └────────┘   └────────┘
//! ```
//!
//! The pivot tiers (`pivot_lb`, `pivot_ub_accept`) read the pivot block
//! each shard of a [`ShardedStore`](ged_graph::ShardedStore) owns, synced
//! by [`GedEngine::sync_sharded_pivots`]; a unit without a synced block —
//! every flat unit, and every shard while
//! [`ShardedStore::pivots_ready`](ged_graph::ShardedStore::pivots_ready)
//! fails for the engine's target — gets the vacuous `[0, ∞)` interval, so
//! those tiers never fire there.
//!
//! In `TopK` and `Range` the branch tier runs inside the shared verify
//! step, and only for solvers that declare
//! [`GedSolver::respects_branch_bound`]: it bounds GEDGW's *objective*
//! over the whole Birkhoff polytope (see [`crate::lower_bound`]), so it
//! rests on a property of the estimator, not only of GED. It compares
//! against the threshold at the start of each verify block, so its
//! counts do not depend on the thread count. In `RangeExact` and the
//! joins it is the root of the exact search itself
//! ([`crate::search::prune_or_verify_in`]), compared with τ directly.
//!
//! The three middle discard tiers are *commutative*: each compares an
//! admissible lower bound against the threshold, so a candidate survives
//! if and only if **all** of them pass — the evaluation order changes
//! which tier gets the credit (and how much bound computation runs), but
//! never the survivor set. Each plan fixes one order: approximate search
//! (top-k, range) checks the cheap signature bounds first
//! (`label → degree → pivot_lb`); exact range and joins lead with the
//! pivot bound (`pivot_lb → label → degree`), one table-row scan that,
//! with good pivots, is the strictest of the three.
//!
//! # Collapsed verification
//!
//! A survivor whose admissible interval is already tight (`lb == ub`)
//! is answered from the bound. For top-k and range the clamp
//! `max(prediction, lb).min(ub)` equals `lb` for *any* prediction (NaN
//! included), so the solver call is skipped with a bit-identical result.
//! For exact range and joins the ub-bounded certificate-recovery search
//! can only conclude `Within(ub)`, so it is skipped too — but only under
//! an unlimited [`GedEngineBuilder::verify_budget`], where that
//! conclusion is guaranteed.
//!
//! # One exact funnel
//!
//! Exact range and the two joins are one filter–verify pipeline whose
//! candidates are `(query, graph)` or `(a, b)` pairs. Their filter
//! survivors share one type, keyed by what each plan reports; one verify
//! tail runs the per-candidate unit over them in deadline-checked
//! blocks; and one [`ExactSearchStats`] accounts every candidate, the
//! join's shard×shard block tier under `pruned_shard` like a range
//! query's shard tier. Exact range verifies in the caller's orientation,
//! query first; the joins verify in canonical orientation so that
//! structurally identical pairs can share one verification.
//!
//! [`GedEngineBuilder::verify_budget`]: crate::engine::GedEngineBuilder::verify_budget

use crate::engine::{
    ensure_nonempty, Deadline, DistanceMatrix, ExactNeighbor, GedEngine, JoinPair, JoinResult,
    Neighbor, RangeExactResult, SearchResult, SearchStats, StoreRef, UndecidedCandidate,
    UndecidedPair,
};
use crate::error::GedError;
use crate::lower_bound::{
    branch_lower_bound_in, branch_slack, degree_sequence_lower_bound_sig, label_set_lower_bound_sig,
};
use crate::method::MethodKind;
use crate::pairs::{structural_cmp, GedPair};
use crate::search::{
    pivot_distance_in, prune_or_verify_with_pivot_in, CandidateOutcome, ExactSearchStats,
};
use crate::solver::{GedSolver, SolverScratch};
use crate::workspace::GedWorkspace;
use ged_graph::{range_distance, Graph, GraphId, GraphSignature, GraphStore, PivotDistance, Shard};
use std::collections::HashMap;

/// One filter-phase survivor: a candidate id plus its per-tier lower
/// bounds (label-set, combined signature, combined-with-pivot) and the
/// pivot-table upper bound (`usize::MAX` when no pivot index is active).
#[derive(Clone, Copy)]
pub(crate) struct Candidate {
    id: GraphId,
    lb_label: usize,
    lb_sig: usize,
    lb: usize,
    ub: usize,
}

impl Candidate {
    /// Assembles a candidate from its label, degree and pivot bounds.
    fn new(id: GraphId, lb_label: usize, lb_degree: usize, (lb_pivot, ub): (usize, usize)) -> Self {
        let lb_sig = lb_label.max(lb_degree);
        Candidate {
            id,
            lb_label,
            lb_sig,
            lb: lb_sig.max(lb_pivot),
            ub,
        }
    }
}

/// How many candidates each verification round hands to the parallel
/// runner between top-k threshold re-checks. Machine-independent so
/// [`SearchStats`] are reproducible everywhere.
pub(crate) const VERIFY_BLOCK: usize = 16;

/// A filter survivor of an exact plan: the key its plan reports it
/// under (the candidate id for `RangeExact`, the `(a, b)` id pair for a
/// join), the verification orientation as graph refs, the pivot-ub
/// membership certificate (if any), and the collapsed exact distance
/// when the pivot interval was already tight (see [`ExactSurvivor::new`]).
#[derive(Clone, Copy)]
struct ExactSurvivor<'g, K> {
    key: K,
    qa: &'g Graph,
    qb: &'g Graph,
    certificate: Option<usize>,
    collapsed_ged: Option<usize>,
}

/// A join survivor, keyed by its reported `(a, b)` pair (`a < b` for a
/// self-join; left/right for a cross-store join) and oriented
/// canonically (see [`canonical_refs`]).
type JoinSurvivor<'g> = ExactSurvivor<'g, (GraphId, GraphId)>;

impl<'g, K> ExactSurvivor<'g, K> {
    /// The survivor `(qa, qb)` with pivot interval `[lb, ub]`. Its
    /// certificate is `ub` when `ub ≤ τ`; it must be a *real* pivot
    /// bound, since the vacuous `usize::MAX` of a disabled pivot tier
    /// would otherwise "certify" everything whenever τ saturates to
    /// `usize::MAX`, crediting the pivot tier with every candidate the
    /// verify tier decides. Under an unlimited verify `budget`, a
    /// certified tight interval (`lb == ub`) also pins the exact
    /// distance: the ub-bounded recovery search could only conclude
    /// `Within(ub)`, so it is skipped.
    fn new(
        key: K,
        (qa, qb): (&'g Graph, &'g Graph),
        (lb, ub): (usize, usize),
        tau: usize,
        budget: usize,
    ) -> Self {
        let certificate = (ub != usize::MAX && ub <= tau).then_some(ub);
        ExactSurvivor {
            key,
            qa,
            qb,
            certificate,
            collapsed_ged: certificate.filter(|&ub| budget == usize::MAX && ub == lb),
        }
    }
}

/// One unit of a join plan: a flat store, or one shard of a sharded
/// store, carrying the aggregate node/edge ranges the block tier
/// compares and its entries pre-sorted in signature band order (the
/// band tier's input).
struct JoinUnit<'s> {
    nodes: (usize, usize),
    edges: (usize, usize),
    pivot: PivotBlock<'s>,
    /// `(id, graph, signature)` ascending by node count (id tie-break) —
    /// [`GraphStore::entries_by_size`]'s band order.
    entries: Vec<(GraphId, &'s Graph, &'s GraphSignature)>,
}

/// Where a plan unit's pivot tier reads from: a shard whose
/// [`Shard::pivot_index`] is built and in sync, or `None` (tier vacuous —
/// flat units, shards of unsynced stores, and plans with the tier off).
type PivotBlock<'s> = Option<&'s Shard>;

/// A shard's block when the tier is on for this plan, else `None`.
fn pivot_block(shard: &Shard, pivots_on: bool) -> PivotBlock<'_> {
    (pivots_on && shard.pivot_index().is_some()).then_some(shard)
}

impl JoinUnit<'_> {
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// The block-tier lower bound between this unit and `other`: the
    /// node-range gap plus the edge-range gap — identical to
    /// [`Shard::block_lower_bound`], generalized to flat units.
    /// Admissible for every member pair, and 0 whenever the ranges
    /// overlap — in particular for a unit against itself, so diagonal
    /// blocks are never block-pruned.
    fn block_bound(&self, other: &JoinUnit<'_>) -> usize {
        range_distance(self.nodes, other.nodes) + range_distance(self.edges, other.edges)
    }
}

/// Which kind of unit×unit block a cross-block filter call works.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CrossKind {
    /// Off-diagonal block of a (sharded) self-join: both ids live in one
    /// store, so pairs canonicalize to ascending id, and the pivot tier
    /// stays vacuous — the two shards own disjoint pivot blocks, and
    /// arming one shard's block per foreign row would cost more
    /// distance computations than the tier saves.
    SameStore,
    /// A cross-store block: `(left id, right id)` pairs as-is; the right
    /// unit's pivot block is armed lazily, once per left row.
    TwoStores,
}

/// The canonical verification orientation of a join pair — exactly
/// [`GedPair::new`]'s rule (node count, then the total structural order
/// for equal sizes) on references. Verifying every survivor in canonical
/// orientation makes the outcome a deterministic function of the pair's
/// *structure* alone, which is what lets structurally identical pairs
/// share one verification (the `cache_hits` tier) without any risk of
/// orientation-dependent divergence under a finite budget.
fn canonical_refs<'g>(ga: &'g Graph, gb: &'g Graph) -> (&'g Graph, &'g Graph) {
    use std::cmp::Ordering;
    let keep = match ga.num_nodes().cmp(&gb.num_nodes()) {
        Ordering::Less => true,
        Ordering::Greater => false,
        Ordering::Equal => structural_cmp(ga, gb) != Ordering::Greater,
    };
    if keep {
        (ga, gb)
    } else {
        (gb, ga)
    }
}

/// One shard of the unified plan: the backing [`GraphStore`], the
/// aggregate lower bound the shard tier compares against the threshold
/// (0 for the flat one-shard case, so it can never fire there), and the
/// shard's pivot block per-candidate bounds are read from (none for the
/// flat case), armed lazily by [`GedEngine::shard_tier_prunes`].
pub(crate) struct ShardUnit<'s> {
    store: &'s GraphStore,
    /// The signature aggregate bound, raised by the shard's pivot
    /// aggregate once the unit is armed.
    lb: usize,
    bucket: usize,
    pivot: PivotBlock<'s>,
    /// This query's distances to the block's pivots; `None` until armed.
    qdists: Option<Vec<PivotDistance>>,
}

impl<'s> ShardUnit<'s> {
    fn len(&self) -> usize {
        self.store.len()
    }

    /// The pivot `[lb, ub]` bounds of `id`, or the vacuous
    /// `(0, usize::MAX)` when the tier is off — uniform across both
    /// store kinds so every plan treats bounds as unconditionally
    /// present. Read only from armed units.
    fn pivot_bounds_for(&self, id: GraphId) -> (usize, usize) {
        match (self.pivot.and_then(Shard::pivot_index), &self.qdists) {
            (Some(index), Some(qdists)) => index
                .bounds(qdists, id)
                .expect("index is synced with the unit store"),
            _ => (0, usize::MAX),
        }
    }
}

impl ExactSearchStats {
    /// The exact plans' commutative discard tiers in their fixed order —
    /// pivot bound, label bound, degree bound — each computed only when
    /// reached. Files a discarded pair under `pruned_pivot` or
    /// `filtered` and returns whether a tier discarded it.
    fn exact_discards(
        &mut self,
        lb_pivot: usize,
        sa: &GraphSignature,
        sb: &GraphSignature,
        tau: usize,
    ) -> bool {
        if lb_pivot > tau {
            self.pruned_pivot += 1;
        } else if label_set_lower_bound_sig(sa, sb) > tau
            || degree_sequence_lower_bound_sig(sa, sb) > tau
        {
            self.filtered += 1;
        } else {
            return false;
        }
        true
    }
}

impl GedEngine {
    /// Decomposes either store kind into the unified plan's
    /// [`ShardUnit`]s, un-armed, sorted ascending by signature aggregate
    /// bound (bucket as the deterministic tie-break) so the most
    /// promising units are visited first. A flat store is one unit with
    /// bound 0 and no pivot block — its shard and pivot tiers can never
    /// fire.
    fn shard_units<'s>(&self, qsig: &GraphSignature, store: StoreRef<'s>) -> Vec<ShardUnit<'s>> {
        match store {
            StoreRef::Flat(flat) => {
                vec![ShardUnit {
                    store: flat,
                    lb: 0,
                    bucket: 0,
                    pivot: None,
                    qdists: None,
                }]
            }
            StoreRef::Sharded(sharded) => {
                let pivots_on = sharded.pivots_ready(self.pivot_target);
                let mut units: Vec<ShardUnit<'s>> = sharded
                    .shards()
                    .map(|shard| ShardUnit {
                        store: shard.store(),
                        lb: shard.signature_lower_bound(qsig),
                        bucket: shard.bucket(),
                        pivot: pivot_block(shard, pivots_on),
                        qdists: None,
                    })
                    .collect();
                units.sort_by_key(|u| (u.lb, u.bucket));
                units
            }
        }
    }

    /// The shard tier with lazy pivot arming: whether `over` holds for
    /// the unit's aggregate bound, so the whole unit can be skipped. The
    /// signature bound is tried first; only a unit it leaves standing is
    /// armed — its query-to-pivot distances computed (adding the count
    /// to `pivot_distances`) and its bound raised by the shard's pivot
    /// aggregate — and tried again. A pruned unit is never armed, and a
    /// kept unit is always armed (when its tier is on), so per-candidate
    /// pivot bounds are exactly those of eager arming.
    fn shard_tier_prunes(
        &self,
        unit: &mut ShardUnit<'_>,
        query: &Graph,
        qsig: &GraphSignature,
        over: impl Fn(usize) -> bool,
        pivot_distances: &mut usize,
        ws: &mut GedWorkspace,
    ) -> bool {
        if over(unit.lb) {
            return true;
        }
        if let Some(shard) = unit.pivot {
            let (qdists, computed) = self.arm_pivot_block(shard, query, qsig, ws);
            *pivot_distances += computed;
            unit.lb = unit.lb.max(shard.pivot_lower_bound(&qdists));
            unit.qdists = Some(qdists);
        }
        over(unit.lb)
    }

    /// Arms one shard's pivot block for `query`: its distances to every
    /// pivot of the block, in column order, plus how many the oracle had
    /// to compute. A member equal to the query — equal
    /// signature, then `Graph ==` — already holds them as its table row,
    /// so a stored query copies that row with zero oracle calls. The row
    /// was filled by the same oracle on the same graph pair, so it is
    /// bit-for-bit what the oracle would return whenever the block was
    /// synced under this engine's verify budget (and an admissible
    /// interval of the same distance otherwise).
    ///
    /// Every pivot-tier consumer arms through here — the plans, the
    /// cross-join probes and [`GedEngine::sharded_pivot_bounds`] — so the
    /// testkit oracles see exactly the bounds a plan used.
    ///
    /// # Panics
    /// If `shard` has no pivot block (callers check
    /// [`Shard::pivot_index`] first).
    pub(crate) fn arm_pivot_block(
        &self,
        shard: &Shard,
        query: &Graph,
        qsig: &GraphSignature,
        ws: &mut GedWorkspace,
    ) -> (Vec<PivotDistance>, usize) {
        let (store, index) = (shard.store(), shard.pivot_index().expect("a synced block"));
        let row = store
            .entries()
            .find(|&(_, g, sig)| sig == qsig && g == query)
            .and_then(|(id, _, _)| index.distances(id));
        if let Some(row) = row {
            return (row.to_vec(), 0);
        }
        let mut oracle = |a: &Graph, b: &Graph| pivot_distance_in(a, b, self.verify_budget, ws);
        (
            index.query_distances(store, query, &mut oracle),
            index.query_cost(),
        )
    }

    /// The unified top-k plan (flat = one-shard case). Every candidate of
    /// an unpruned unit gets all its bounds: the lb-ascending processing
    /// order needs them, and the pruning attribution reads them.
    pub(crate) fn plan_top_k(
        &self,
        method: MethodKind,
        query: &Graph,
        store: StoreRef<'_>,
        k: usize,
        deadline: Deadline,
    ) -> Result<SearchResult, GedError> {
        if k == 0 {
            return Err(GedError::InvalidK { what: "top-k" });
        }
        ensure_nonempty(query, "query")?;
        let solver = self.solver(method)?;
        store.validate()?;

        let qsig = GraphSignature::of(query);
        let mut units = self.shard_units(&qsig, store);
        let k = k.min(store.len());
        let mut stats = SearchStats {
            candidates: store.len(),
            ..SearchStats::default()
        };
        let mut best: Vec<Neighbor> = Vec::new();
        let block = k.max(VERIFY_BLOCK);
        let mut ws = GedWorkspace::new();
        for unit in &mut units {
            // Shard tier: an aggregate bound over the k-th best proves
            // every member ranks after the current top k.
            let kth = (best.len() >= k).then(|| best[k - 1].ged);
            if self.shard_tier_prunes(
                unit,
                query,
                &qsig,
                |lb| kth.is_some_and(|kth| (lb as f64) > kth),
                &mut stats.pivot_distances,
                &mut ws,
            ) {
                stats.pruned_shard += unit.len();
                continue;
            }
            let unit = &*unit;
            let mut candidates: Vec<Candidate> = unit
                .store
                .entries()
                .map(|(id, _, sig)| {
                    Candidate::new(
                        id,
                        label_set_lower_bound_sig(&qsig, sig),
                        degree_sequence_lower_bound_sig(&qsig, sig),
                        unit.pivot_bounds_for(id),
                    )
                })
                .collect();
            // Ascending lower bounds: the most promising candidates are
            // verified first, which tightens the k-th-best threshold as
            // early as possible. Sorted order also means the first
            // candidate over the threshold proves every later one is
            // over it too.
            candidates.sort_by(|a, b| a.lb.cmp(&b.lb).then(a.id.cmp(&b.id)));
            let mut i = 0;
            while i < candidates.len() {
                // Re-read the pruning threshold between rounds: it
                // tightens monotonically as verified candidates
                // accumulate (+∞ until k are known).
                let kth = if best.len() >= k {
                    best[k - 1].ged
                } else {
                    f64::INFINITY
                };
                if (candidates[i].lb as f64) > kth {
                    for c in &candidates[i..] {
                        if (c.lb_label as f64) > kth {
                            stats.pruned_label += 1;
                        } else if (c.lb_sig as f64) > kth {
                            stats.pruned_degree += 1;
                        } else {
                            stats.pruned_pivot += 1;
                        }
                    }
                    break;
                }
                // Cooperative checkpoint between verification rounds: a
                // top-k round is already a bounded block of solver calls.
                deadline.check()?;
                let hi = (i + block).min(candidates.len());
                let round = &candidates[i..hi];
                let verified =
                    self.verify(method, solver, query, unit.store, round, kth, &mut stats);
                best.extend(verified);
                best.sort_by(|a, b| a.ged.total_cmp(&b.ged).then(a.id.cmp(&b.id)));
                i = hi;
            }
            // Bounded merge: only the current top k cross a shard
            // boundary — anything beyond rank k can never re-enter.
            best.truncate(k);
        }
        Ok(SearchResult {
            neighbors: best,
            stats,
        })
    }

    /// The unified range plan (flat = one-shard case). The commutative
    /// discards run label → degree → pivot, each bound computed only when
    /// reached.
    pub(crate) fn plan_range(
        &self,
        method: MethodKind,
        query: &Graph,
        store: StoreRef<'_>,
        tau: f64,
        deadline: Deadline,
    ) -> Result<SearchResult, GedError> {
        if tau.is_nan() {
            return Err(GedError::Config(
                "range threshold must not be NaN".to_string(),
            ));
        }
        ensure_nonempty(query, "query")?;
        let solver = self.solver(method)?;
        store.validate()?;

        let qsig = GraphSignature::of(query);
        let mut units = self.shard_units(&qsig, store);
        let mut stats = SearchStats {
            candidates: store.len(),
            ..SearchStats::default()
        };
        let mut neighbors: Vec<Neighbor> = Vec::new();
        let mut ws = GedWorkspace::new();
        for unit in &mut units {
            if self.shard_tier_prunes(
                unit,
                query,
                &qsig,
                |lb| (lb as f64) > tau,
                &mut stats.pivot_distances,
                &mut ws,
            ) {
                stats.pruned_shard += unit.len();
                continue;
            }
            let unit = &*unit;
            let mut survivors: Vec<Candidate> = Vec::new();
            for (id, _, sig) in unit.store.entries() {
                let lb_label = label_set_lower_bound_sig(&qsig, sig);
                if (lb_label as f64) > tau {
                    stats.pruned_label += 1;
                    continue;
                }
                let lb_degree = degree_sequence_lower_bound_sig(&qsig, sig);
                if (lb_degree as f64) > tau {
                    stats.pruned_degree += 1;
                    continue;
                }
                let pivot = unit.pivot_bounds_for(id);
                if (pivot.0 as f64) > tau {
                    stats.pruned_pivot += 1;
                    continue;
                }
                let c = Candidate::new(id, lb_label, lb_degree, pivot);
                if c.ub != usize::MAX && (c.ub as f64) <= tau {
                    // The pivot table proves this candidate's exact GED
                    // is within τ: membership is decided before the
                    // solver runs (the solver still supplies the
                    // reported estimate, which the ub-clamp keeps ≤ τ).
                    // The `usize::MAX` guard keeps the vacuous no-pivot
                    // bound from counting as a certificate when τ itself
                    // is unbounded.
                    stats.accepted_pivot += 1;
                }
                survivors.push(c);
            }
            // Per-candidate verification is independent, so the unit's
            // batch runs in deadline-checked blocks.
            let verified = self.deadline_blocks(&survivors, deadline, |block| {
                self.verify(method, solver, query, unit.store, block, tau, &mut stats)
            })?;
            neighbors.extend(verified.into_iter().filter(|n| n.ged <= tau));
        }
        neighbors.sort_by(|a, b| a.ged.total_cmp(&b.ged).then(a.id.cmp(&b.id)));
        Ok(SearchResult { neighbors, stats })
    }

    /// The unified exact range plan (flat = one-shard case). The
    /// commutative discards run pivot → label → degree; certificate
    /// recovery collapses on a tight pivot interval under an unlimited
    /// verify budget (see [`ExactSurvivor::new`]). Survivors verify in the
    /// caller's orientation, query first.
    pub(crate) fn plan_range_exact(
        &self,
        method: MethodKind,
        query: &Graph,
        store: StoreRef<'_>,
        tau: f64,
        deadline: Deadline,
    ) -> Result<RangeExactResult, GedError> {
        let tau = exact_tau(tau, "exact range")?;
        // Exact search never consults the solver; validate the method
        // anyway so a `QueryOpts::method` override behaves uniformly.
        let _ = self.solver(method)?;
        ensure_nonempty(query, "query")?;
        store.validate()?;

        let mut stats = ExactSearchStats::default();
        let Some(tau) = tau else {
            stats.filtered = store.len();
            return Ok(RangeExactResult {
                matches: Vec::new(),
                budget_exhausted: Vec::new(),
                stats,
            });
        };
        let qsig = GraphSignature::of(query);
        let mut units = self.shard_units(&qsig, store);
        let mut survivors = Vec::new();
        let mut ws = GedWorkspace::new();
        for unit in &mut units {
            if self.shard_tier_prunes(
                unit,
                query,
                &qsig,
                |lb| lb > tau,
                &mut stats.pivot_distances,
                &mut ws,
            ) {
                stats.pruned_shard += unit.len();
                continue;
            }
            for (id, g, sig) in unit.store.entries() {
                let pivot = unit.pivot_bounds_for(id);
                if !stats.exact_discards(pivot.0, &qsig, sig, tau) {
                    let pair = (query, g);
                    survivors.push(ExactSurvivor::new(id, pair, pivot, tau, self.verify_budget));
                }
            }
        }
        // Units were visited in bound order; restore the flat plan's
        // globally ascending id order for the verify batch.
        survivors.sort_by_key(|s| s.key);

        let outcomes = self.verify_exact(&survivors, tau, deadline, &mut stats)?;
        let mut matches = Vec::new();
        let mut budget_exhausted = Vec::new();
        for (s, outcome) in survivors.iter().zip(outcomes) {
            match outcome {
                CandidateOutcome::AcceptedByPivot { ged } | CandidateOutcome::Verified { ged } => {
                    matches.push(ExactNeighbor { id: s.key, ged });
                }
                CandidateOutcome::PrunedByBranch | CandidateOutcome::Rejected => {}
                CandidateOutcome::BudgetExhausted { accepted_ub } => {
                    budget_exhausted.push(UndecidedCandidate {
                        id: s.key,
                        known_match_ub: accepted_ub,
                    });
                }
            }
        }
        debug_assert_eq!(
            stats.total(),
            store.len(),
            "every candidate lands in one tier"
        );
        Ok(RangeExactResult {
            matches,
            budget_exhausted,
            stats,
        })
    }

    /// The branch and verify tiers every exact plan shares, over its
    /// survivors in [`Self::deadline_blocks`]: a collapsed survivor is
    /// answered from its tight pivot interval, and every other runs
    /// [`prune_or_verify_with_pivot_in`] in the orientation its plan filed
    /// it in (a certified one skips the branch tier for the
    /// certificate-bounded distance recovery). Each outcome depends on its
    /// survivor alone, so the thread count never changes one. Returns the
    /// outcomes in survivor order, each already recorded in `stats`.
    fn verify_exact<K: Sync>(
        &self,
        survivors: &[ExactSurvivor<'_, K>],
        tau: usize,
        deadline: Deadline,
        stats: &mut ExactSearchStats,
    ) -> Result<Vec<CandidateOutcome>, GedError> {
        let budget = self.verify_budget;
        let outcomes = self.deadline_blocks(survivors, deadline, |block| {
            self.runner
                .map_init(block, GedWorkspace::new, |ws, s| match s.collapsed_ged {
                    Some(ged) => CandidateOutcome::AcceptedByPivot { ged },
                    None => {
                        prune_or_verify_with_pivot_in(s.qa, s.qb, tau, budget, s.certificate, ws)
                    }
                })
        })?;
        for outcome in &outcomes {
            stats.record(outcome);
        }
        Ok(outcomes)
    }

    /// The unified matrix plan: validation plus the shared
    /// upper-triangle kernel over the globally id-ordered graph
    /// sequence, so flat and sharded matrices are bit-identical over the
    /// same graphs. (No filter tiers — every pair must be computed.)
    pub(crate) fn plan_matrix(
        &self,
        method: MethodKind,
        store: StoreRef<'_>,
        deadline: Deadline,
    ) -> Result<DistanceMatrix, GedError> {
        let solver = self.solver(method)?;
        store.validate()?;
        self.matrix_of(method, solver, store.iter().collect(), deadline)
    }

    /// Decomposes either store kind into the join plan's band-ordered
    /// [`JoinUnit`]s. A flat store is one unit whose aggregate ranges
    /// come from an O(n) signature sweep (its block tier can only fire
    /// against *other* units); a sharded store yields one unit per shard
    /// with the shard's maintained aggregates. Flat units carry no pivot
    /// block; `arm_pivots: false` (the left side of a cross-store join)
    /// leaves shards without one too.
    fn join_units<'s>(&self, store: StoreRef<'s>, arm_pivots: bool) -> Vec<JoinUnit<'s>> {
        match store {
            StoreRef::Flat(flat) => {
                let entries = flat.entries_by_size();
                let mut nodes = (usize::MAX, 0);
                let mut edges = (usize::MAX, 0);
                for &(_, _, sig) in &entries {
                    nodes = (nodes.0.min(sig.num_nodes()), nodes.1.max(sig.num_nodes()));
                    edges = (edges.0.min(sig.num_edges()), edges.1.max(sig.num_edges()));
                }
                vec![JoinUnit {
                    nodes,
                    edges,
                    pivot: None,
                    entries,
                }]
            }
            StoreRef::Sharded(sharded) => {
                let pivots_on = arm_pivots && sharded.pivots_ready(self.pivot_target);
                sharded
                    .shards()
                    .map(|shard| JoinUnit {
                        nodes: (shard.min_nodes(), shard.max_nodes()),
                        edges: (shard.min_edges(), shard.max_edges()),
                        pivot: pivot_block(shard, pivots_on),
                        entries: shard.store().entries_by_size(),
                    })
                    .collect()
            }
        }
    }

    /// Filters one unit's *diagonal* self-join block: all unordered
    /// same-unit pairs, streamed in band order. The pivot tier reads the
    /// shard's own table rows via [`ged_graph::PivotIndex::member_bounds`] —
    /// no per-row distance computations at all.
    fn filter_self_block<'s>(
        &self,
        unit: &JoinUnit<'s>,
        tau: usize,
        stats: &mut ExactSearchStats,
        survivors: &mut Vec<JoinSurvivor<'s>>,
    ) {
        let entries = &unit.entries;
        for (i, &(ia, ga, sa)) in entries.iter().enumerate() {
            for (j, &(ib, gb, sb)) in entries.iter().enumerate().skip(i + 1) {
                // Band tier: entries ascend by node count, so the first
                // partner past the size-difference bound proves every
                // later one is past it too — the rest of the row is
                // discarded by arithmetic.
                if sb.num_nodes() - sa.num_nodes() > tau {
                    stats.pruned_band += entries.len() - j;
                    break;
                }
                let pivot = unit
                    .pivot
                    .and_then(|shard| shard.pivot_index()?.member_bounds(ia, ib))
                    .unwrap_or((0, usize::MAX));
                if stats.exact_discards(pivot.0, sa, sb, tau) {
                    continue;
                }
                // One store: ascending-id orientation is canonical.
                let key = if ia <= ib { (ia, ib) } else { (ib, ia) };
                let pair = canonical_refs(ga, gb);
                survivors.push(ExactSurvivor::new(
                    key,
                    pair,
                    pivot,
                    tau,
                    self.verify_budget,
                ));
            }
        }
    }

    /// Filters one off-diagonal `left-unit × right-unit` block: for each
    /// left row, the band tier narrows the right entries to the one
    /// contiguous window within the size-difference bound
    /// (`partition_point` on the band order), then the window runs the
    /// exact discard tiers. `TwoStores` blocks arm the right unit's pivot
    /// block lazily — once per left row, and only if the row's window is
    /// not empty — adding the computed distances to `pivot_distances`.
    fn filter_cross_block<'s>(
        &self,
        left: &JoinUnit<'s>,
        right: &JoinUnit<'s>,
        kind: CrossKind,
        tau: usize,
        stats: &mut ExactSearchStats,
        survivors: &mut Vec<JoinSurvivor<'s>>,
    ) {
        let mut ws = GedWorkspace::new();
        for &(ia, ga, sa) in &left.entries {
            let na = sa.num_nodes();
            let lo = right
                .entries
                .partition_point(|&(_, _, s)| s.num_nodes() < na.saturating_sub(tau));
            let hi = right
                .entries
                .partition_point(|&(_, _, s)| s.num_nodes() <= na.saturating_add(tau));
            stats.pruned_band += right.entries.len() - (hi - lo);
            let mut qdists: Option<Vec<PivotDistance>> = None;
            for &(ib, gb, sb) in &right.entries[lo..hi] {
                let pivot = match (kind, right.pivot) {
                    (CrossKind::TwoStores, Some(shard)) => {
                        let qd = qdists.get_or_insert_with(|| {
                            let (qd, computed) = self.arm_pivot_block(shard, ga, sa, &mut ws);
                            stats.pivot_distances += computed;
                            qd
                        });
                        let ix = shard.pivot_index().expect("a synced block");
                        ix.bounds(qd, ib)
                            .expect("index is synced with its unit store")
                    }
                    // Same-store off-diagonal blocks keep the tier
                    // vacuous (see [`CrossKind::SameStore`]).
                    _ => (0, usize::MAX),
                };
                if stats.exact_discards(pivot.0, sa, sb, tau) {
                    continue;
                }
                let key = match kind {
                    CrossKind::SameStore if ib < ia => (ib, ia),
                    _ => (ia, ib),
                };
                let pair = canonical_refs(ga, gb);
                survivors.push(ExactSurvivor::new(
                    key,
                    pair,
                    pivot,
                    tau,
                    self.verify_budget,
                ));
            }
        }
    }

    /// The unified self-join plan (flat = one-unit case): every
    /// unordered pair of stored graphs with exact GED ≤ τ, through the
    /// block → band → commutative-discard → dedup → verify tier stack.
    /// τ semantics follow [`crate::engine::GedQuery::SelfJoin`];
    /// [`ExactSearchStats::total`] always closes to `n·(n−1)/2`.
    pub(crate) fn plan_self_join(
        &self,
        method: MethodKind,
        store: StoreRef<'_>,
        tau: f64,
        deadline: Deadline,
    ) -> Result<JoinResult, GedError> {
        let tau = exact_tau(tau, "join")?;
        // Joins never consult the solver; validate the method anyway so
        // a `QueryOpts::method` override behaves uniformly.
        let _ = self.solver(method)?;
        store.validate()?;
        let n = store.len();
        self.run_join(tau, n * (n - 1) / 2, deadline, |tau, stats, survivors| {
            let units = self.join_units(store, true);
            for (i, unit) in units.iter().enumerate() {
                deadline.check()?;
                // A unit's diagonal block can never be block-pruned (its
                // ranges overlap themselves, bound 0), so it goes
                // straight to the band tier.
                self.filter_self_block(unit, tau, stats, survivors);
                for other in &units[i + 1..] {
                    deadline.check()?;
                    // Block tier: one aggregate comparison discards the
                    // whole shard×shard block of pairs.
                    if unit.block_bound(other) > tau {
                        stats.pruned_shard += unit.len() * other.len();
                        continue;
                    }
                    let kind = CrossKind::SameStore;
                    self.filter_cross_block(unit, other, kind, tau, stats, survivors);
                }
            }
            Ok(())
        })
    }

    /// The unified cross-store join plan: every `(a, b)` pair with `a`
    /// from `left` and `b` from `right` and exact GED ≤ τ — the same
    /// tier stack as [`Self::plan_self_join`] over the
    /// `left-unit × right-unit` block grid. Only the right side arms
    /// pivots (lazily, once per left row per unit). `join(s, s)` is the
    /// *ordered* product — all `n·m` pairs including the diagonal;
    /// symmetric duplicates resolve through the dedup tier as
    /// `cache_hits`. [`ExactSearchStats::total`] always closes to `n·m`.
    pub(crate) fn plan_join<'s>(
        &self,
        method: MethodKind,
        left: StoreRef<'s>,
        right: StoreRef<'s>,
        tau: f64,
        deadline: Deadline,
    ) -> Result<JoinResult, GedError> {
        let tau = exact_tau(tau, "join")?;
        let _ = self.solver(method)?;
        left.validate()?;
        right.validate()?;
        let total_pairs = left.len() * right.len();
        self.run_join(tau, total_pairs, deadline, |tau, stats, survivors| {
            // Only the right side serves the pivot tier (armed per left
            // row), so left units are always built bare.
            let right_units = self.join_units(right, true);
            for lu in &self.join_units(left, false) {
                deadline.check()?;
                for ru in &right_units {
                    if lu.block_bound(ru) > tau {
                        stats.pruned_shard += lu.len() * ru.len();
                        continue;
                    }
                    let kind = CrossKind::TwoStores;
                    self.filter_cross_block(lu, ru, kind, tau, stats, survivors);
                }
            }
            Ok(())
        })
    }

    /// The body both join plans share. A negative τ (`None`) files every
    /// one of the `total_pairs` under `filtered`. Otherwise `filter` runs
    /// the plan's block, band and discard tiers at τ; its survivors are
    /// put in ascending `(a, b)` order, deduplicated so each structurally
    /// identical `(pair, certificate, collapsed)` class verifies once
    /// (dupes land in the `cache_hits` tier), the representatives run
    /// [`Self::verify_exact`], and every survivor is assembled from its
    /// class outcome.
    fn run_join<'s>(
        &self,
        tau: Option<usize>,
        total_pairs: usize,
        deadline: Deadline,
        filter: impl FnOnce(
            usize,
            &mut ExactSearchStats,
            &mut Vec<JoinSurvivor<'s>>,
        ) -> Result<(), GedError>,
    ) -> Result<JoinResult, GedError> {
        let mut stats = ExactSearchStats::default();
        let Some(tau) = tau else {
            stats.filtered = total_pairs;
            return Ok(JoinResult {
                pairs: Vec::new(),
                budget_exhausted: Vec::new(),
                stats,
            });
        };
        let mut survivors = Vec::new();
        filter(tau, &mut stats, &mut survivors)?;
        // Blocks were visited in unit order; report pairs in ascending
        // (a, b) id order (the brute-force nested-loop order).
        survivors.sort_by_key(|s| s.key);

        // Dedup tier: two survivors whose canonical graphs are
        // structurally identical — and whose certificate and collapsed
        // distance agree, so the verify input is bit-identical — share
        // one deterministic outcome. The class key holds the graphs
        // themselves, so a hash collision can never share a wrong
        // outcome. The first occurrence (smallest (a, b)) is the
        // representative.
        let mut reps: Vec<JoinSurvivor<'s>> = Vec::new();
        let mut rep_of: Vec<usize> = Vec::with_capacity(survivors.len());
        let mut classes = HashMap::new();
        for s in &survivors {
            let next = reps.len();
            let class = (s.qa, s.qb, s.certificate, s.collapsed_ged);
            let ri = *classes.entry(class).or_insert(next);
            if ri == next {
                reps.push(*s);
            }
            rep_of.push(ri);
        }
        stats.cache_hits += survivors.len() - reps.len();

        let outcomes = self.verify_exact(&reps, tau, deadline, &mut stats)?;
        let mut pairs = Vec::new();
        let mut budget_exhausted = Vec::new();
        for (s, &ri) in survivors.iter().zip(&rep_of) {
            let (a, b) = s.key;
            match outcomes[ri] {
                CandidateOutcome::AcceptedByPivot { ged } | CandidateOutcome::Verified { ged } => {
                    pairs.push(JoinPair { a, b, ged });
                }
                CandidateOutcome::PrunedByBranch | CandidateOutcome::Rejected => {}
                CandidateOutcome::BudgetExhausted { accepted_ub } => {
                    budget_exhausted.push(UndecidedPair {
                        a,
                        b,
                        known_match_ub: accepted_ub,
                    });
                }
            }
        }
        debug_assert_eq!(
            stats.total(),
            total_pairs,
            "every pair lands in exactly one tier"
        );
        Ok(JoinResult {
            pairs,
            budget_exhausted,
            stats,
        })
    }

    /// The verify phase shared by `TopK` and `Range`: runs the solver on
    /// every candidate in parallel and refines each prediction into the
    /// candidate's admissible `[lb, ub]` interval
    /// (`min(max(prediction, lb), ub)`). The interval provably contains
    /// the true GED, so clamping only ever moves an estimate *toward* it
    /// — and it is what makes bound-based pruning (and pivot-ub range
    /// acceptance) exactly consistent with a full scan applying the same
    /// refinement. Without a pivot index `ub` is `usize::MAX` and this is
    /// the classic one-sided `max(prediction, lb)` of the signature
    /// tiers.
    ///
    /// A candidate whose interval is already tight (`lb == ub`) skips the
    /// solver: the clamp pins the output to `lb` for any prediction
    /// (`f64::max` ignores NaN), so the emitted neighbor is bit-identical
    /// either way.
    ///
    /// The branch tier: when the solver declares
    /// [`GedSolver::respects_branch_bound`], a candidate whose branch
    /// bound exceeds `threshold` (the k-th best at the start of the
    /// block, or τ) by more than [`branch_slack`] is discarded unsolved.
    /// Its refined value would be at least `branch − slack > threshold`,
    /// so it could enter neither answer. The threshold is fixed for the
    /// whole block, so the decision is the same at any thread count.
    /// Counts land in `stats.pruned_branch` and `stats.verified`.
    #[allow(clippy::too_many_arguments)]
    fn verify(
        &self,
        method: MethodKind,
        solver: &dyn GedSolver,
        query: &Graph,
        store: &GraphStore,
        candidates: &[Candidate],
        threshold: f64,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        let branch_tier = threshold < f64::INFINITY && solver.respects_branch_bound();
        let outcomes = self
            .runner
            .map_init(candidates, SolverScratch::new, |scratch, c| {
                if c.ub != usize::MAX && c.lb == c.ub {
                    return Some(Neighbor {
                        id: c.id,
                        ged: c.lb as f64,
                    });
                }
                let graph = store.get(c.id).expect("candidate ids come from this store");
                if branch_tier {
                    let branch = branch_lower_bound_in(query, graph, &mut scratch.ged);
                    if branch > threshold + branch_slack(query, graph) {
                        return None;
                    }
                }
                let pair = GedPair::new(query.clone(), graph.clone());
                let prediction = self.predict_cached(method, solver, &pair, scratch);
                Some(Neighbor {
                    id: c.id,
                    // f64::max ignores a NaN prediction, keeping the no-panic,
                    // no-NaN contract of the ranking; lb ≤ ub always (both
                    // bound the same exact GED), so the clamp is well formed.
                    ged: prediction.max(c.lb as f64).min(c.ub as f64),
                })
            });
        let verified: Vec<Neighbor> = outcomes.into_iter().flatten().collect();
        stats.pruned_branch += candidates.len() - verified.len();
        stats.verified += verified.len();
        verified
    }
}

/// The exact plans' integral threshold. NaN is a [`GedError::Config`]
/// naming `plan`. A negative τ is `None`: every lower bound (≥ 0)
/// exceeds it, so the plan files all its candidates under
/// [`ExactSearchStats::filtered`] and matches nothing. Any other τ
/// saturates: GED is integral, so `GED ≤ τ ⟺ GED ≤ ⌊τ⌋`, and `+∞` (or
/// any τ beyond `usize`) casts to `usize::MAX`, an effectively unbounded
/// threshold — τ is only ever compared, never added, so no overflow.
fn exact_tau(tau: f64, plan: &str) -> Result<Option<usize>, GedError> {
    if tau.is_nan() {
        return Err(GedError::Config(format!(
            "{plan} threshold must not be NaN"
        )));
    }
    Ok((tau >= 0.0).then(|| tau.floor() as usize))
}
