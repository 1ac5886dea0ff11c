//! The unified tiered query pipeline and the adaptive query planner.
//!
//! Every store-level plan of [`GedEngine`] — top-k, range, exact range,
//! and matrix, over flat [`GraphStore`]s and [`ShardedStore`]s alike —
//! runs through the **one** candidate pipeline of this module. A flat
//! store is simply the one-shard special case: both store kinds are
//! decomposed into `ShardUnit`s (a flat store yields a single unit with
//! aggregate lower bound 0, so its shard tier can never fire), and from
//! there the per-shape plan bodies are shared verbatim. The previous
//! eight hand-rolled plan implementations in `engine.rs` collapse into
//! the four `plan_*` functions here.
//!
//! # Filter tiers
//!
//! [`FilterTier`] names every stage a candidate can be decided by, in the
//! order the static plans apply them:
//!
//! ```text
//!            ┌──────────┐   ┌────────────────────────────┐   ┌──────────────────┐   ┌────────┐
//!  store ──▶ │  shard   │──▶│ label · degree · pivot_lb  │──▶│  pivot_ub_accept │──▶│ verify │
//!            │ aggregate│   │  (commutative discards)    │   │  gedgw_ub_accept │   │        │
//!            └──────────┘   └────────────────────────────┘   └──────────────────┘   └────────┘
//! ```
//!
//! The three middle discard tiers are *commutative*: each compares an
//! admissible lower bound against the threshold, so a candidate survives
//! if and only if **all** of them pass — the evaluation order changes
//! which tier gets the credit (and how much bound computation runs), but
//! never the survivor set. That commutativity is what the planner
//! exploits.
//!
//! # The adaptive planner
//!
//! [`QueryPlanner`] (enabled via [`GedEngineBuilder::adaptive_planner`])
//! records per-tier hit rates per query shape as deterministic EWMAs —
//! counts only, never wall-clock, so recorded state is reproducible —
//! and derives three per-query decisions, every one of which is
//! **result-invariant**:
//!
//! * **Reorder** the commutative discard tiers by observed efficiency
//!   (EWMA yield over static unit cost). Only attribution and bound
//!   evaluations change; the survivor set is identical.
//! * **Skip pivot arming** for `RangeExact` once the pivot tier's
//!   observed yield is ~0 — saving the per-query query-to-pivot distance
//!   computations ([`PivotIndex::query_cost`]). Only taken under an
//!   unlimited [`GedEngineBuilder::verify_budget`], where the engine
//!   docs prove the armed and unarmed exact plans answer identically; a
//!   finite budget could shift candidates between `matches` and
//!   `budget_exhausted`, so the planner never skips there.
//! * **Collapse verification** when a candidate's admissible interval is
//!   already tight (`lb == ub`): the clamp `max(prediction, lb).min(ub)`
//!   equals `lb` for *any* prediction, so the solver call (top-k/range)
//!   or the certificate-recovery search (exact range, unlimited budget
//!   only) is skipped and the bound is emitted directly.
//!
//! Because every decision is result-invariant, answers are bit-identical
//! to the static plan for *any* planner state — the EWMAs may evolve
//! nondeterministically under concurrent queries, yet no interleaving
//! can change an answer, only the work spent producing it
//! (property-tested in `tests/planner.rs`). [`SearchStats`] /
//! [`ExactSearchStats`] totals still close; per-tier *attribution* may
//! shift with the reordered tiers.
//!
//! [`GedEngine::explain`] reports the decision the planner would take
//! for a shape right now, plus its cumulative savings counters.
//!
//! [`GedEngineBuilder::adaptive_planner`]: crate::engine::GedEngineBuilder::adaptive_planner
//! [`GedEngineBuilder::verify_budget`]: crate::engine::GedEngineBuilder::verify_budget
//! [`PivotIndex::query_cost`]: ged_graph::PivotIndex::query_cost

use crate::engine::{
    ensure_nonempty, ensure_sharded_store_valid, ensure_store_valid, Deadline, DistanceMatrix,
    ExactNeighbor, GedEngine, JoinPair, JoinResult, Neighbor, RangeExactResult, SearchResult,
    SearchStats, UndecidedCandidate, UndecidedPair,
};
use crate::error::GedError;
use crate::lower_bound::{degree_sequence_lower_bound_sig, label_set_lower_bound_sig};
use crate::method::MethodKind;
use crate::pairs::{structural_cmp, GedPair};
use crate::search::{
    pivot_distance_in, prune_or_verify_with_pivot_in, CandidateOutcome, ExactSearchStats, JoinStats,
};
use crate::solver::{GedSolver, SolverScratch};
use crate::workspace::GedWorkspace;
use ged_graph::{
    range_distance, Graph, GraphId, GraphSignature, GraphStore, PivotDistance, PivotIndex, Shard,
    ShardedStore,
};
use std::collections::HashMap;
use std::sync::Arc;

/// The stages of the unified filter–verify pipeline, in static plan
/// order. See the [module docs](self) for which stages apply to which
/// query shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FilterTier {
    /// The shard-aggregate lower bound: discards a whole [`Shard`] before
    /// any per-graph metadata is read. Vacuous (bound 0) for flat stores.
    /// Joins extend it to unit×unit *blocks*
    /// ([`Shard::block_lower_bound`]): one range-gap comparison discards
    /// every pair of a block at once.
    Shard,
    /// The size-difference band bound of the join plans: candidates
    /// stream in signature-sort (node-count) order, so `|n_a − n_b| > τ`
    /// discards a whole contiguous band of partners by arithmetic —
    /// structural and always on, never part of the commutative reorder
    /// set (it is what *generates* the per-pair candidate stream).
    Band,
    /// The label-set lower bound (signature-fed, commutative discard).
    Label,
    /// The degree-sequence lower bound (signature-fed, commutative
    /// discard).
    Degree,
    /// The pivot-table triangle-inequality lower bound (commutative
    /// discard; vacuous without an armed pivot index).
    PivotLb,
    /// The pivot-table upper bound *accept*: `ub ≤ τ` certifies
    /// membership before any solver or search runs.
    PivotUbAccept,
    /// The feasible GEDGW upper bound *accept* of the exact pipeline.
    GedgwUbAccept,
    /// The verify stage: solver estimation (top-k/range) or τ-bounded
    /// exact search (exact range).
    Verify,
}

impl FilterTier {
    /// The tier's stable wire/display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FilterTier::Shard => "shard",
            FilterTier::Band => "band",
            FilterTier::Label => "label",
            FilterTier::Degree => "degree",
            FilterTier::PivotLb => "pivot_lb",
            FilterTier::PivotUbAccept => "pivot_ub_accept",
            FilterTier::GedgwUbAccept => "gedgw_ub_accept",
            FilterTier::Verify => "verify",
        }
    }

    /// Deterministic structural cost weight of evaluating this tier for
    /// one candidate, in arbitrary units (a machine-independent stand-in
    /// for latency, so planner decisions are reproducible): the label
    /// bound is one sorted-multiset sweep, the degree bound sweeps both
    /// degree sequences, and the pivot bound scans a `p`-entry table row.
    #[must_use]
    pub fn unit_cost(self) -> f64 {
        match self {
            FilterTier::Shard => 0.0,
            // One integer comparison amortized over a whole pruned band.
            FilterTier::Band => 0.1,
            FilterTier::Label => 1.0,
            FilterTier::Degree => 1.5,
            FilterTier::PivotLb => 2.0,
            FilterTier::PivotUbAccept | FilterTier::GedgwUbAccept => 4.0,
            FilterTier::Verify => 100.0,
        }
    }
}

/// The store-level query shapes the planner tracks independently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryShape {
    /// `top_k` / `top_k_sharded`.
    TopK,
    /// `range` / `range_sharded`.
    Range,
    /// `range_exact` / `range_exact_sharded`.
    RangeExact,
    /// `distance_matrix` / `distance_matrix_sharded` (verify-only: every
    /// pair must be computed, so there is nothing to plan).
    Matrix,
    /// `self_join` / `join` (flat or sharded): dataset-scale all-pairs
    /// similarity joins through the block/band/per-pair tier stack.
    Join,
}

impl QueryShape {
    /// The shape's stable wire/display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            QueryShape::TopK => "top_k",
            QueryShape::Range => "range",
            QueryShape::RangeExact => "range_exact",
            QueryShape::Matrix => "matrix",
            QueryShape::Join => "join",
        }
    }

    /// Parses a wire/display name back into a shape.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "top_k" => Some(QueryShape::TopK),
            "range" => Some(QueryShape::Range),
            "range_exact" => Some(QueryShape::RangeExact),
            "matrix" => Some(QueryShape::Matrix),
            "join" => Some(QueryShape::Join),
            _ => None,
        }
    }

    /// Index into the planner's per-shape slots (`Matrix` is unplanned).
    fn slot(self) -> Option<usize> {
        match self {
            QueryShape::TopK => Some(0),
            QueryShape::Range => Some(1),
            QueryShape::RangeExact => Some(2),
            QueryShape::Matrix => None,
            QueryShape::Join => Some(3),
        }
    }

    /// The static order of the commutative discard tiers for this shape —
    /// exactly the order the pre-planner plans hard-coded: approximate
    /// search checks the cheap signature bounds before the pivot table;
    /// exact search leads with the pivot bound (one table-row scan and,
    /// with good pivots, the strictest of the three).
    fn static_order(self) -> [FilterTier; 3] {
        match self {
            QueryShape::RangeExact | QueryShape::Join => {
                [FilterTier::PivotLb, FilterTier::Label, FilterTier::Degree]
            }
            _ => [FilterTier::Label, FilterTier::Degree, FilterTier::PivotLb],
        }
    }
}

/// Queries before the planner trusts its EWMAs enough to deviate from
/// the static order.
const MIN_OBSERVATIONS: u64 = 3;

/// EWMA smoothing factor for per-tier yield shares.
const EWMA_ALPHA: f64 = 0.25;

/// A pivot-tier yield share below this is "never fires" for the
/// arming-skip decision.
const SKIP_EPSILON: f64 = 1e-3;

/// Per-shape planner state: how often each discard tier fired, as EWMA
/// shares of the candidate population.
#[derive(Clone, Copy, Debug, Default)]
struct ShapeStats {
    observations: u64,
    /// EWMA share of candidates discarded per commutative tier, indexed
    /// `[label, degree, pivot_lb]`.
    discard_share: [f64; 3],
    /// EWMA share of candidates the pivot tier decided either way
    /// (discarded by its lower bound *or* accepted by its upper bound) —
    /// the arming-skip signal: if this is ~0 the per-query arming cost
    /// buys nothing.
    pivot_share: f64,
}

/// What one executed query reports back to the planner.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct TierObservation {
    pub candidates: usize,
    pub label: usize,
    pub degree: usize,
    pub pivot_pruned: usize,
    pub pivot_accepted: usize,
    pub solver_calls_saved: u64,
    pub searches_saved: u64,
    pub pivot_arms_saved: u64,
}

/// The per-query plan the (static or adaptive) planner settled on.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PlanDecision {
    /// Evaluation order of the commutative discard tiers.
    pub order: [FilterTier; 3],
    /// Whether to arm the pivot tier (compute per-query query-to-pivot
    /// distances). Only ever `false` for `RangeExact` under an unlimited
    /// verify budget.
    pub arm_pivots: bool,
    /// Whether to collapse verification when `lb == ub` (see the
    /// [module docs](self)); `false` exactly reproduces the static
    /// plans' work profile.
    pub collapse_verify: bool,
}

impl PlanDecision {
    /// The decision the pre-planner engine always took.
    fn static_for(shape: QueryShape) -> Self {
        PlanDecision {
            order: shape.static_order(),
            arm_pivots: true,
            collapse_verify: false,
        }
    }

    /// The full tier order this decision runs `shape` through, for
    /// [`PlanExplanation`].
    fn tier_names(&self, shape: QueryShape) -> Vec<&'static str> {
        let mut tiers = vec![FilterTier::Shard.name()];
        match shape {
            QueryShape::Matrix => return vec![FilterTier::Verify.name()],
            QueryShape::TopK => {
                tiers.extend(self.order.iter().map(|t| t.name()));
            }
            QueryShape::Range => {
                tiers.extend(self.order.iter().map(|t| t.name()));
                tiers.push(FilterTier::PivotUbAccept.name());
            }
            QueryShape::RangeExact | QueryShape::Join => {
                if shape == QueryShape::Join {
                    tiers.push(FilterTier::Band.name());
                }
                for tier in &self.order {
                    if self.arm_pivots || *tier != FilterTier::PivotLb {
                        tiers.push(tier.name());
                    }
                }
                if self.arm_pivots {
                    tiers.push(FilterTier::PivotUbAccept.name());
                }
                tiers.push(FilterTier::GedgwUbAccept.name());
            }
        }
        tiers.push(FilterTier::Verify.name());
        tiers
    }

    /// The tiers this decision skips entirely, for [`PlanExplanation`].
    fn skipped_names(&self, shape: QueryShape) -> Vec<&'static str> {
        let exact = matches!(shape, QueryShape::RangeExact | QueryShape::Join);
        if exact && !self.arm_pivots {
            vec![FilterTier::PivotLb.name(), FilterTier::PivotUbAccept.name()]
        } else {
            Vec::new()
        }
    }
}

/// The adaptive planner a [`GedEngine`] owns when
/// [`GedEngineBuilder::adaptive_planner`](crate::engine::GedEngineBuilder::adaptive_planner)
/// is on: per-shape, per-tier EWMA hit rates plus cumulative savings
/// counters. All state is derived from deterministic per-query counts —
/// never wall-clock — and every decision it makes is result-invariant
/// (see the [module docs](self)).
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryPlanner {
    /// `[TopK, Range, RangeExact, Join]` slots.
    shapes: [ShapeStats; 4],
    solver_calls_saved: u64,
    searches_saved: u64,
    pivot_arms_saved: u64,
}

impl QueryPlanner {
    pub(crate) fn new() -> Self {
        QueryPlanner::default()
    }

    /// How many queries of `shape` have been observed.
    #[must_use]
    pub fn observations(&self, shape: QueryShape) -> u64 {
        shape
            .slot()
            .map_or(0, |slot| self.shapes[slot].observations)
    }

    /// Solver invocations skipped by collapsed (`lb == ub`) verification.
    #[must_use]
    pub fn solver_calls_saved(&self) -> u64 {
        self.solver_calls_saved
    }

    /// Bounded exact searches skipped by collapsed certificate recovery.
    #[must_use]
    pub fn searches_saved(&self) -> u64 {
        self.searches_saved
    }

    /// Query-to-pivot distance computations skipped by un-armed pivot
    /// tiers.
    #[must_use]
    pub fn pivot_arms_saved(&self) -> u64 {
        self.pivot_arms_saved
    }

    pub(crate) fn observe(&mut self, shape: QueryShape, obs: TierObservation) {
        self.solver_calls_saved += obs.solver_calls_saved;
        self.searches_saved += obs.searches_saved;
        self.pivot_arms_saved += obs.pivot_arms_saved;
        let Some(slot) = shape.slot() else { return };
        let stats = &mut self.shapes[slot];
        stats.observations += 1;
        if obs.candidates == 0 {
            return;
        }
        let n = obs.candidates as f64;
        let fired = [obs.label, obs.degree, obs.pivot_pruned];
        for (share, count) in stats.discard_share.iter_mut().zip(fired) {
            *share += EWMA_ALPHA * (count as f64 / n - *share);
        }
        let pivot_total = (obs.pivot_pruned + obs.pivot_accepted) as f64 / n;
        stats.pivot_share += EWMA_ALPHA * (pivot_total - stats.pivot_share);
    }

    pub(crate) fn decision(&self, shape: QueryShape, budget_unlimited: bool) -> PlanDecision {
        let mut decision = PlanDecision::static_for(shape);
        // Collapsing lb == ub verification is result-invariant for every
        // prediction (the clamp pins the output), so it needs no warmup.
        decision.collapse_verify = true;
        let Some(slot) = shape.slot() else {
            return decision;
        };
        let stats = &self.shapes[slot];
        if stats.observations < MIN_OBSERVATIONS {
            return decision;
        }
        // Reorder the commutative discards by observed efficiency (EWMA
        // yield per unit cost), descending. The sort is stable, so equal
        // efficiencies keep the static order.
        let share_of = |tier: FilterTier| match tier {
            FilterTier::Label => stats.discard_share[0],
            FilterTier::Degree => stats.discard_share[1],
            _ => stats.discard_share[2],
        };
        decision.order.sort_by(|&a, &b| {
            let ea = share_of(a) / a.unit_cost();
            let eb = share_of(b) / b.unit_cost();
            eb.partial_cmp(&ea).unwrap_or(std::cmp::Ordering::Equal)
        });
        let exact_shape = matches!(shape, QueryShape::RangeExact | QueryShape::Join);
        if exact_shape && budget_unlimited && stats.pivot_share < SKIP_EPSILON {
            // The pivot tier has not been earning its per-query arming
            // cost. Under an unlimited budget the armed and unarmed
            // exact plans are provably bit-identical (engine docs), so
            // skipping is safe; under a finite budget it is not taken.
            decision.arm_pivots = false;
        }
        decision
    }
}

/// The decision [`GedEngine::explain`] reports: the tier order the
/// (static or adaptive) planner would run a query shape through right
/// now, plus the planner's cumulative savings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanExplanation {
    /// The query shape explained.
    pub shape: QueryShape,
    /// Whether the adaptive planner is enabled on this engine.
    pub adaptive: bool,
    /// The tier order a query of this shape would run through, first to
    /// last ([`FilterTier::name`] values).
    pub tiers: Vec<&'static str>,
    /// Tiers the current decision skips entirely (empty for the static
    /// planner).
    pub skipped: Vec<&'static str>,
    /// Queries of this shape observed so far (0 without the planner).
    pub observations: u64,
    /// Solver invocations skipped so far, across all shapes.
    pub solver_calls_saved: u64,
    /// Bounded exact searches skipped so far, across all shapes.
    pub searches_saved: u64,
    /// Query-to-pivot distance computations skipped so far.
    pub pivot_arms_saved: u64,
}

/// Cumulative savings of an engine's adaptive planner (see
/// [`GedEngine::planner_counters`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlannerCounters {
    /// Solver invocations skipped by collapsed verification.
    pub solver_calls_saved: u64,
    /// Bounded exact searches skipped by collapsed certificate recovery.
    pub searches_saved: u64,
    /// Query-to-pivot distance computations skipped by un-armed pivot
    /// tiers.
    pub pivot_arms_saved: u64,
}

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

/// How many candidates each verification round hands to the parallel
/// runner between top-k threshold re-checks. Machine-independent so
/// [`SearchStats`] are reproducible everywhere.
pub(crate) const VERIFY_BLOCK: usize = 16;

/// An exact-range filter survivor: the id, the pivot-ub membership
/// certificate (if any), and — adaptive planner only — the collapsed
/// exact distance when the pivot interval was already tight.
struct ExactSurvivor {
    id: GraphId,
    certificate: Option<usize>,
    collapsed_ged: Option<usize>,
}

/// One unit of a join plan: a flat store, or one shard of a sharded
/// store, carrying the aggregate node/edge ranges the block tier
/// compares and its entries pre-sorted in signature band order (the
/// band tier's input).
struct JoinUnit<'s> {
    store: &'s GraphStore,
    nodes: (usize, usize),
    edges: (usize, usize),
    pivot: PivotBlock<'s>,
    /// `(id, graph, signature)` ascending by node count (id tie-break) —
    /// [`GraphStore::entries_by_size`]'s band order.
    entries: Vec<(GraphId, &'s Graph, &'s GraphSignature)>,
}

/// Where a plan unit's pivot tier reads from (`None` = tier vacuous).
enum PivotBlock<'s> {
    None,
    /// The engine's flat-store index, already synced — its
    /// [`PivotIndex::member_bounds`] rows serve every same-unit join pair
    /// with zero per-row arming (the build *is* the arming).
    Flat(Arc<PivotIndex>),
    /// A shard's own pivot block (its [`Shard::pivot_index`] is built).
    Shard(&'s Shard),
}

impl<'s> PivotBlock<'s> {
    /// A shard's block when the tier is on for this plan, else `None`.
    fn of_shard(shard: &'s Shard, pivots_on: bool) -> Self {
        match shard.pivot_index() {
            Some(_) if pivots_on => PivotBlock::Shard(shard),
            _ => PivotBlock::None,
        }
    }

    fn index(&self) -> Option<&PivotIndex> {
        match self {
            PivotBlock::None => None,
            PivotBlock::Flat(ix) => Some(ix),
            PivotBlock::Shard(shard) => shard.pivot_index(),
        }
    }
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

/// A join-filter survivor: the reported id pair (`a < b` for a
/// self-join; left/right for a cross-store join), the canonical
/// verification orientation as graph refs, the pivot-ub membership
/// certificate, and — adaptive planner only — the collapsed exact
/// distance when the pivot interval was already tight.
struct JoinSurvivor<'s> {
    a: GraphId,
    b: GraphId,
    qa: &'s Graph,
    qb: &'s Graph,
    certificate: Option<usize>,
    collapsed_ged: Option<usize>,
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

/// How one pair fared against the commutative discard tiers.
enum PairVerdict {
    Discarded,
    Survived {
        certificate: Option<usize>,
        collapsed_ged: Option<usize>,
    },
}

/// Runs one candidate pair through the commutative discard tiers in
/// `decision.order`, lazily — each bound is computed at most once, and
/// only when the order reaches its tier — then forces the pivot bounds
/// for the survivor's certificate (`ub ≤ τ`, real bounds only) and, with
/// `collapse`, the pinned distance of a tight `lb == ub` interval.
fn filter_join_pair(
    decision: &PlanDecision,
    collapse: bool,
    sa: &GraphSignature,
    sb: &GraphSignature,
    pivot: &mut dyn FnMut() -> (usize, usize),
    tau: usize,
    discards: &mut DiscardCounts,
) -> PairVerdict {
    let mut label = None;
    let mut degree = None;
    let mut pv: Option<(usize, usize)> = None;
    for tier in decision.order {
        let lb = match tier {
            FilterTier::Label => *label.get_or_insert_with(|| label_set_lower_bound_sig(sa, sb)),
            FilterTier::Degree => {
                *degree.get_or_insert_with(|| degree_sequence_lower_bound_sig(sa, sb))
            }
            _ => pv.get_or_insert_with(&mut *pivot).0,
        };
        if lb > tau {
            discards.record(tier);
            return PairVerdict::Discarded;
        }
    }
    // Forcing the pivot bounds here mirrors the exact-range plan: a
    // surviving pair always knows its `[lb, ub]` interval, which is what
    // the certificate and the collapse read. The `usize::MAX` guard keeps
    // a vacuous no-pivot bound from counting as a certificate when τ
    // itself saturates (see `plan_range_exact`).
    let (lb_pivot, ub_pivot) = *pv.get_or_insert_with(&mut *pivot);
    let certificate = (ub_pivot != usize::MAX && ub_pivot <= tau).then_some(ub_pivot);
    let collapsed_ged = if collapse {
        certificate.filter(|&ub| ub == lb_pivot)
    } else {
        None
    };
    PairVerdict::Survived {
        certificate,
        collapsed_ged,
    }
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

/// Structural fingerprint of a canonically oriented pair (same scheme as
/// the engine's prediction cache). Collisions are harmless: the dedup
/// tier exact-compares graphs within each bucket.
fn join_pair_fingerprint(qa: &Graph, qb: &Graph) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    qa.hash(&mut h);
    qb.hash(&mut h);
    h.finish()
}

/// Filters one unit's *diagonal* self-join block: all unordered
/// same-unit pairs, streamed in band order. The pivot tier reads the
/// unit's own index rows via [`PivotIndex::member_bounds`] — no per-row
/// distance computations at all.
#[allow(clippy::too_many_arguments)]
fn filter_self_block<'s>(
    unit: &JoinUnit<'s>,
    tau: usize,
    decision: &PlanDecision,
    collapse: bool,
    discards: &mut DiscardCounts,
    stats: &mut JoinStats,
    searches_saved: &mut u64,
    survivors: &mut Vec<JoinSurvivor<'s>>,
) {
    let entries = &unit.entries;
    for (i, &(ia, ga, sa)) in entries.iter().enumerate() {
        for (j, &(ib, gb, sb)) in entries.iter().enumerate().skip(i + 1) {
            // Band tier: entries ascend by node count, so the first
            // partner past the size-difference bound proves every later
            // one is past it too — the rest of the row is discarded by
            // arithmetic.
            if sb.num_nodes() - sa.num_nodes() > tau {
                stats.pruned_band += entries.len() - j;
                break;
            }
            let mut pivot = || {
                unit.pivot
                    .index()
                    .and_then(|ix| ix.member_bounds(ia, ib))
                    .unwrap_or((0, usize::MAX))
            };
            match filter_join_pair(decision, collapse, sa, sb, &mut pivot, tau, discards) {
                PairVerdict::Discarded => {}
                PairVerdict::Survived {
                    certificate,
                    collapsed_ged,
                } => {
                    if collapsed_ged.is_some() {
                        *searches_saved += 1;
                    }
                    // One store: ascending-id orientation is canonical.
                    let (a, b) = if ia <= ib { (ia, ib) } else { (ib, ia) };
                    let (qa, qb) = canonical_refs(ga, gb);
                    survivors.push(JoinSurvivor {
                        a,
                        b,
                        qa,
                        qb,
                        certificate,
                        collapsed_ged,
                    });
                }
            }
        }
    }
}

/// Either store kind, as the plans see it. Flat stores become the
/// one-shard special case of sharded ones in [`GedEngine::shard_units`].
#[derive(Clone, Copy)]
pub(crate) enum PlanStore<'a> {
    Flat(&'a GraphStore),
    Sharded(&'a ShardedStore),
}

impl<'a> PlanStore<'a> {
    fn len(self) -> usize {
        match self {
            PlanStore::Flat(s) => s.len(),
            PlanStore::Sharded(s) => s.len(),
        }
    }

    fn graph(self, id: GraphId) -> Option<&'a Graph> {
        match self {
            PlanStore::Flat(s) => s.get(id),
            PlanStore::Sharded(s) => s.get(id),
        }
    }

    fn validate(self) -> Result<(), GedError> {
        match self {
            PlanStore::Flat(s) => ensure_store_valid(s),
            PlanStore::Sharded(s) => ensure_sharded_store_valid(s),
        }
    }

    /// Every graph in globally ascending id order (the matrix kernel's
    /// input order).
    fn graphs(self) -> Vec<(GraphId, &'a Graph)> {
        match self {
            PlanStore::Flat(s) => s.iter().collect(),
            PlanStore::Sharded(s) => s.iter().collect(),
        }
    }
}

/// One shard of the unified plan: the backing [`GraphStore`], the
/// aggregate lower bound the shard tier compares against the threshold
/// (0 for the flat one-shard case, so it can never fire there), and the
/// pivot block per-candidate bounds are read from, armed lazily by
/// [`GedEngine::shard_tier_prunes`].
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
        match (self.pivot.index(), &self.qdists) {
            (Some(index), Some(qdists)) => index
                .bounds(qdists, id)
                .expect("index is synced with the unit store"),
            _ => (0, usize::MAX),
        }
    }
}

/// Lazily evaluated per-candidate tier bounds: each bound is computed at
/// most once, and only when the evaluation order actually reaches its
/// tier — so a reordered plan spends exactly the bound computations its
/// order implies, and the static order reproduces the legacy plans'
/// short-circuit work profile.
struct LazyTiers<'a, 's> {
    unit: &'a ShardUnit<'s>,
    qsig: &'a GraphSignature,
    sig: &'a GraphSignature,
    id: GraphId,
    label: Option<usize>,
    degree: Option<usize>,
    pivot: Option<(usize, usize)>,
}

impl<'a, 's> LazyTiers<'a, 's> {
    fn new(
        unit: &'a ShardUnit<'s>,
        qsig: &'a GraphSignature,
        id: GraphId,
        sig: &'a GraphSignature,
    ) -> Self {
        LazyTiers {
            unit,
            qsig,
            sig,
            id,
            label: None,
            degree: None,
            pivot: None,
        }
    }

    fn label(&mut self) -> usize {
        *self
            .label
            .get_or_insert_with(|| label_set_lower_bound_sig(self.qsig, self.sig))
    }

    fn degree(&mut self) -> usize {
        *self
            .degree
            .get_or_insert_with(|| degree_sequence_lower_bound_sig(self.qsig, self.sig))
    }

    fn pivot(&mut self) -> (usize, usize) {
        let unit = self.unit;
        let id = self.id;
        *self.pivot.get_or_insert_with(|| unit.pivot_bounds_for(id))
    }

    /// This candidate's lower bound at one commutative discard tier.
    fn lower_bound(&mut self, tier: FilterTier) -> usize {
        match tier {
            FilterTier::Label => self.label(),
            FilterTier::Degree => self.degree(),
            _ => self.pivot().0,
        }
    }

    /// Forces every bound and assembles the full [`Candidate`] record
    /// (what the verify phase's clamp and the top-k sort need).
    fn candidate(&mut self) -> Candidate {
        let lb_label = self.label();
        let lb_sig = lb_label.max(self.degree());
        let (lb_pivot, ub) = self.pivot();
        Candidate {
            id: self.id,
            lb_label,
            lb_sig,
            lb: lb_sig.max(lb_pivot),
            ub,
        }
    }
}

/// Per-discard-tier fire counts of one query, accumulated into both the
/// [`SearchStats`]/[`ExactSearchStats`] attribution and the planner's
/// observation.
#[derive(Default, Clone, Copy)]
struct DiscardCounts {
    label: usize,
    degree: usize,
    pivot: usize,
}

impl DiscardCounts {
    fn record(&mut self, tier: FilterTier) {
        match tier {
            FilterTier::Label => self.label += 1,
            FilterTier::Degree => self.degree += 1,
            _ => self.pivot += 1,
        }
    }
}

impl GedEngine {
    /// The per-query decision: static when the planner is off, adaptive
    /// otherwise.
    fn plan_decision(&self, shape: QueryShape) -> PlanDecision {
        match &self.planner {
            None => PlanDecision::static_for(shape),
            Some(p) => p
                .lock()
                .expect("planner lock")
                .decision(shape, self.verify_budget == usize::MAX),
        }
    }

    /// Feeds one executed query's tier counts back into the planner (a
    /// no-op when the planner is off).
    fn plan_observe(&self, shape: QueryShape, obs: TierObservation) {
        if let Some(p) = &self.planner {
            p.lock().expect("planner lock").observe(shape, obs);
        }
    }

    /// Whether the adaptive planner is enabled.
    #[must_use]
    pub fn planner_enabled(&self) -> bool {
        self.planner.is_some()
    }

    /// The planner's cumulative savings counters, or `None` when the
    /// adaptive planner is off.
    #[must_use]
    pub fn planner_counters(&self) -> Option<PlannerCounters> {
        self.planner.as_ref().map(|p| {
            let p = p.lock().expect("planner lock");
            PlannerCounters {
                solver_calls_saved: p.solver_calls_saved(),
                searches_saved: p.searches_saved(),
                pivot_arms_saved: p.pivot_arms_saved(),
            }
        })
    }

    /// Explains the plan a query of `shape` would run right now: the
    /// tier order, any skipped tiers, and the planner's observation and
    /// savings counters. With the planner off this is the static plan
    /// (and the counters are zero).
    #[must_use]
    pub fn explain(&self, shape: QueryShape) -> PlanExplanation {
        let decision = self.plan_decision(shape);
        let (observations, counters) = match &self.planner {
            Some(p) => {
                let p = p.lock().expect("planner lock");
                (
                    p.observations(shape),
                    PlannerCounters {
                        solver_calls_saved: p.solver_calls_saved(),
                        searches_saved: p.searches_saved(),
                        pivot_arms_saved: p.pivot_arms_saved(),
                    },
                )
            }
            None => (0, PlannerCounters::default()),
        };
        PlanExplanation {
            shape,
            adaptive: self.planner.is_some(),
            tiers: decision.tier_names(shape),
            skipped: decision.skipped_names(shape),
            observations,
            solver_calls_saved: counters.solver_calls_saved,
            searches_saved: counters.searches_saved,
            pivot_arms_saved: counters.pivot_arms_saved,
        }
    }

    /// Decomposes either store kind into the unified plan's
    /// [`ShardUnit`]s, un-armed, sorted ascending by signature aggregate
    /// bound (bucket as the deterministic tie-break) so the most
    /// promising units are visited first. A flat store is one unit with
    /// bound 0 — its shard tier can never fire and `pruned_shard` stays
    /// 0, exactly the legacy flat plans.
    ///
    /// `arm_pivots: false` (planner, `RangeExact` only) turns the pivot
    /// tier off entirely: no unit is ever armed, per-candidate bounds are
    /// vacuous, and sharded aggregate bounds stay signatures alone.
    fn shard_units<'s>(
        &self,
        qsig: &GraphSignature,
        store: PlanStore<'s>,
        arm_pivots: bool,
    ) -> Vec<ShardUnit<'s>> {
        match store {
            PlanStore::Flat(flat) => {
                vec![ShardUnit {
                    store: flat,
                    lb: 0,
                    bucket: 0,
                    pivot: self.flat_pivot_block(flat, arm_pivots),
                    qdists: None,
                }]
            }
            PlanStore::Sharded(sharded) => {
                let pivots_on = arm_pivots && sharded.pivots_ready(self.pivot_target);
                let mut units: Vec<ShardUnit<'s>> = sharded
                    .shards()
                    .map(|shard| ShardUnit {
                        store: shard.store(),
                        lb: shard.signature_lower_bound(qsig),
                        bucket: shard.bucket(),
                        pivot: PivotBlock::of_shard(shard, pivots_on),
                        qdists: None,
                    })
                    .collect();
                units.sort_by_key(|u| (u.lb, u.bucket));
                units
            }
        }
    }

    /// A flat store's pivot block: the engine's index, synced to `flat`
    /// (built on first use), when the tier is on for this plan.
    /// With the tier off nothing is synced: syncing is part of the cost
    /// an un-armed plan skips.
    fn flat_pivot_block(&self, flat: &GraphStore, arm_pivots: bool) -> PivotBlock<'static> {
        let index = if arm_pivots {
            self.synced_pivot_index(flat)
        } else {
            None
        };
        index.map_or(PivotBlock::None, PivotBlock::Flat)
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
        if let Some(index) = unit.pivot.index() {
            let (qdists, computed) = self.arm_pivot_block(index, unit.store, query, qsig, ws);
            *pivot_distances += computed;
            if let PivotBlock::Shard(shard) = unit.pivot {
                unit.lb = unit.lb.max(shard.pivot_lower_bound(&qdists));
            }
            unit.qdists = Some(qdists);
        }
        over(unit.lb)
    }

    /// Arms one pivot block for `query`: its distances to every pivot of
    /// `index` (synced with `store`), in column order, plus how many the
    /// oracle had to compute. A member equal to the query — equal
    /// signature, then `Graph ==` — already holds them as its table row,
    /// so a stored query (inline or `*_by_id`) copies that row with zero
    /// oracle calls. The row was filled by the same oracle on the same
    /// graph pair, so it is bit-for-bit what the oracle would return
    /// whenever the block was synced under this engine's verify budget
    /// (and an admissible interval of the same distance otherwise).
    ///
    /// Every pivot-tier consumer arms through here — the plans, the
    /// cross-join probes, [`GedEngine::pivot_bounds`] and
    /// [`GedEngine::sharded_pivot_bounds`] — so the testkit oracles see
    /// exactly the bounds a plan used.
    pub(crate) fn arm_pivot_block(
        &self,
        index: &PivotIndex,
        store: &GraphStore,
        query: &Graph,
        qsig: &GraphSignature,
        ws: &mut GedWorkspace,
    ) -> (Vec<PivotDistance>, usize) {
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

    /// How many query-to-pivot distance computations an un-armed query
    /// skipped — [`PivotIndex::query_cost`](ged_graph::PivotIndex::query_cost)
    /// summed over the store's pivot blocks (the flat store's engine-side
    /// index is deliberately not synced here — syncing is the cost being
    /// skipped — so its target stands in for its size). This is the cost
    /// of arming every block; lazy arming would have spent at most this
    /// (nothing on a reused row or a shard the signature tier skips).
    fn pivot_arm_cost(&self, store: PlanStore<'_>) -> u64 {
        match store {
            PlanStore::Flat(flat) => self.pivot_target.min(flat.len()) as u64,
            PlanStore::Sharded(sharded) => {
                sharded.shards().map(|s| s.pivot_query_cost() as u64).sum()
            }
        }
    }

    /// The unified top-k plan (flat = one-shard case). The planner's only
    /// lever here is collapsed verification: the lb-ascending processing
    /// order already forces every bound, so tier reordering buys nothing,
    /// and skipping pivot arming would change the clamped estimates.
    pub(crate) fn plan_top_k(
        &self,
        method: MethodKind,
        query: &Graph,
        store: PlanStore<'_>,
        k: usize,
        deadline: Deadline,
    ) -> Result<SearchResult, GedError> {
        if k == 0 {
            return Err(GedError::InvalidK { what: "top-k" });
        }
        ensure_nonempty(query, "query")?;
        let solver = self.solver(method)?;
        store.validate()?;

        let decision = self.plan_decision(QueryShape::TopK);
        let qsig = GraphSignature::of(query);
        let mut units = self.shard_units(&qsig, store, true);
        let k = k.min(store.len());
        let mut stats = SearchStats {
            candidates: store.len(),
            ..SearchStats::default()
        };
        let mut best: Vec<Neighbor> = Vec::new();
        let block = k.max(VERIFY_BLOCK);
        let mut solver_calls_saved = 0u64;
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
                .map(|(id, _, sig)| LazyTiers::new(unit, &qsig, id, sig).candidate())
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
                // accumulate.
                if best.len() >= k {
                    let kth = best[k - 1].ged;
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
                }
                // Cooperative checkpoint between verification rounds: a
                // top-k round is already a bounded block of solver calls.
                deadline.check()?;
                let hi = (i + block).min(candidates.len());
                let round = &candidates[i..hi];
                if decision.collapse_verify {
                    solver_calls_saved += collapsible(round);
                }
                let verified = self.verify(
                    method,
                    solver,
                    query,
                    unit.store,
                    round,
                    decision.collapse_verify,
                );
                stats.verified += verified.len();
                best.extend(verified);
                best.sort_by(|a, b| a.ged.total_cmp(&b.ged).then(a.id.cmp(&b.id)));
                i = hi;
            }
            // Bounded merge: only the current top k cross a shard
            // boundary — anything beyond rank k can never re-enter.
            best.truncate(k);
        }
        self.plan_observe(
            QueryShape::TopK,
            TierObservation {
                candidates: stats.candidates,
                label: stats.pruned_label,
                degree: stats.pruned_degree,
                pivot_pruned: stats.pruned_pivot,
                solver_calls_saved,
                ..TierObservation::default()
            },
        );
        Ok(SearchResult {
            neighbors: best,
            stats,
        })
    }

    /// The unified range plan (flat = one-shard case). The planner may
    /// reorder the commutative discard tiers and collapse `lb == ub`
    /// verification; the pivot tier stays armed because verified
    /// estimates clamp into its `[lb, ub]` interval (un-arming would
    /// change reported values, not just work).
    pub(crate) fn plan_range(
        &self,
        method: MethodKind,
        query: &Graph,
        store: PlanStore<'_>,
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

        let decision = self.plan_decision(QueryShape::Range);
        let qsig = GraphSignature::of(query);
        let mut units = self.shard_units(&qsig, store, true);
        let mut stats = SearchStats {
            candidates: store.len(),
            ..SearchStats::default()
        };
        let mut discards = DiscardCounts::default();
        let mut solver_calls_saved = 0u64;
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
            'candidates: for (id, _, sig) in unit.store.entries() {
                let mut tiers = LazyTiers::new(unit, &qsig, id, sig);
                for tier in decision.order {
                    if (tiers.lower_bound(tier) as f64) > tau {
                        discards.record(tier);
                        continue 'candidates;
                    }
                }
                let c = tiers.candidate();
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
            if decision.collapse_verify {
                solver_calls_saved += collapsible(&survivors);
            }
            // With a deadline set, the per-unit verify batch is chunked
            // with a cooperative checkpoint between blocks (per-candidate
            // verification is independent, so chunking cannot change a
            // value).
            let verified = if deadline.is_set() {
                let mut out = Vec::with_capacity(survivors.len());
                for chunk in survivors.chunks(self.verify_block_len()) {
                    deadline.check()?;
                    out.extend(self.verify(
                        method,
                        solver,
                        query,
                        unit.store,
                        chunk,
                        decision.collapse_verify,
                    ));
                }
                out
            } else {
                self.verify(
                    method,
                    solver,
                    query,
                    unit.store,
                    &survivors,
                    decision.collapse_verify,
                )
            };
            stats.verified += verified.len();
            neighbors.extend(verified.into_iter().filter(|n| n.ged <= tau));
        }
        stats.pruned_label = discards.label;
        stats.pruned_degree = discards.degree;
        stats.pruned_pivot = discards.pivot;
        neighbors.sort_by(|a, b| a.ged.total_cmp(&b.ged).then(a.id.cmp(&b.id)));
        self.plan_observe(
            QueryShape::Range,
            TierObservation {
                candidates: stats.candidates,
                label: discards.label,
                degree: discards.degree,
                pivot_pruned: discards.pivot,
                pivot_accepted: stats.accepted_pivot,
                solver_calls_saved,
                ..TierObservation::default()
            },
        );
        Ok(SearchResult { neighbors, stats })
    }

    /// The unified exact range plan (flat = one-shard case). The planner
    /// may reorder the commutative discards, skip pivot arming once the
    /// tier's yield is ~0, and collapse certificate recovery when the
    /// pivot interval is already tight — the latter two only under an
    /// unlimited verify budget, where they are provably bit-identical.
    pub(crate) fn plan_range_exact(
        &self,
        method: MethodKind,
        query: &Graph,
        store: PlanStore<'_>,
        tau: f64,
        deadline: Deadline,
    ) -> Result<RangeExactResult, GedError> {
        if tau.is_nan() {
            return Err(GedError::Config(
                "exact range threshold must not be NaN".to_string(),
            ));
        }
        // Exact search never consults the solver; validate the method
        // anyway so `query_as(method, ..)` behaves uniformly.
        let _ = self.solver(method)?;
        ensure_nonempty(query, "query")?;
        store.validate()?;

        let mut stats = ExactSearchStats::default();
        if tau < 0.0 {
            // Every lower bound (≥ 0) exceeds a negative τ: the filter
            // tier discards the whole store.
            stats.filtered = store.len();
            return Ok(RangeExactResult {
                matches: Vec::new(),
                budget_exhausted: Vec::new(),
                stats,
            });
        }
        // GED is integral: GED ≤ τ ⟺ GED ≤ ⌊τ⌋. `+∞` (and any τ beyond
        // usize) saturates to an effectively unbounded threshold — τ is
        // only ever compared, never added, so no overflow.
        let tau = if tau.is_infinite() {
            usize::MAX
        } else {
            tau.floor() as usize
        };

        let budget_unlimited = self.verify_budget == usize::MAX;
        let decision = self.plan_decision(QueryShape::RangeExact);
        let collapse = decision.collapse_verify && budget_unlimited;
        let qsig = GraphSignature::of(query);
        let mut units = self.shard_units(&qsig, store, decision.arm_pivots);
        let pivot_arms_saved = if decision.arm_pivots {
            0
        } else {
            self.pivot_arm_cost(store)
        };

        let mut discards = DiscardCounts::default();
        let mut searches_saved = 0u64;
        let mut survivors: Vec<ExactSurvivor> = Vec::new();
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
            let unit = &*unit;
            'candidates: for (id, _, sig) in unit.store.entries() {
                let mut tiers = LazyTiers::new(unit, &qsig, id, sig);
                for tier in decision.order {
                    if tiers.lower_bound(tier) > tau {
                        discards.record(tier);
                        continue 'candidates;
                    }
                }
                let (lb_pivot, ub_pivot) = tiers.pivot();
                // A certificate must be a *real* pivot bound: the vacuous
                // `usize::MAX` of a disabled pivot tier would otherwise
                // "certify" everything whenever τ saturates to
                // `usize::MAX`, replacing the tight GEDGW-ub recovery
                // search with an effectively unbounded one.
                let certificate = (ub_pivot != usize::MAX && ub_pivot <= tau).then_some(ub_pivot);
                // Collapsed recovery: when the pivot interval is tight
                // (lb == ub ≤ τ) and the budget is unlimited, the
                // ub-bounded recovery search can only conclude
                // `Within(ub)` — its result is pinned, so skip it.
                let collapsed_ged = if collapse {
                    certificate.filter(|&ub| ub == lb_pivot)
                } else {
                    None
                };
                if collapsed_ged.is_some() {
                    searches_saved += 1;
                }
                survivors.push(ExactSurvivor {
                    id,
                    certificate,
                    collapsed_ged,
                });
            }
        }
        stats.pruned_pivot = discards.pivot;
        stats.filtered = discards.label + discards.degree;
        // Units were visited in bound order; restore the flat plan's
        // globally ascending id order for the verify batch.
        survivors.sort_by_key(|s| s.id);

        // Prune / verify tiers: per-candidate, embarrassingly parallel,
        // deterministic — so thread count never changes the answer and
        // input (id) order is preserved. A pivot-certified candidate
        // skips the GEDGW bound and goes straight to the
        // (pivot-ub-bounded) exact-distance recovery. With a deadline
        // set the batch is chunked with a cooperative checkpoint between
        // blocks (chunking cannot change a per-candidate outcome).
        let run = |ws: &mut GedWorkspace, s: &ExactSurvivor| {
            if let Some(ged) = s.collapsed_ged {
                return CandidateOutcome::AcceptedByPivot { ged };
            }
            let cand = store
                .graph(s.id)
                .expect("survivor ids come from this store");
            prune_or_verify_with_pivot_in(query, cand, tau, self.verify_budget, s.certificate, ws)
        };
        let outcomes = if deadline.is_set() {
            let mut out = Vec::with_capacity(survivors.len());
            for chunk in survivors.chunks(self.verify_block_len()) {
                deadline.check()?;
                out.extend(self.runner.map_init(chunk, GedWorkspace::new, run));
            }
            out
        } else {
            self.runner.map_init(&survivors, GedWorkspace::new, run)
        };

        let mut matches = Vec::new();
        let mut budget_exhausted = Vec::new();
        for (s, outcome) in survivors.iter().zip(outcomes) {
            stats.record(&outcome);
            match outcome {
                crate::search::CandidateOutcome::AcceptedByPivot { ged }
                | crate::search::CandidateOutcome::AcceptedEarly { ged }
                | crate::search::CandidateOutcome::Verified { ged } => {
                    matches.push(ExactNeighbor { id: s.id, ged });
                }
                crate::search::CandidateOutcome::Rejected => {}
                crate::search::CandidateOutcome::BudgetExhausted { accepted_ub } => {
                    budget_exhausted.push(UndecidedCandidate {
                        id: s.id,
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
        self.plan_observe(
            QueryShape::RangeExact,
            TierObservation {
                candidates: store.len(),
                label: discards.label,
                degree: discards.degree,
                pivot_pruned: discards.pivot,
                pivot_accepted: stats.accepted_pivot,
                searches_saved,
                pivot_arms_saved,
                ..TierObservation::default()
            },
        );
        Ok(RangeExactResult {
            matches,
            budget_exhausted,
            stats,
        })
    }

    /// The unified matrix plan: validation plus the shared
    /// upper-triangle kernel over the globally id-ordered graph
    /// sequence, so flat and sharded matrices are bit-identical over the
    /// same graphs. (No filter tiers — every pair must be computed.)
    pub(crate) fn plan_matrix(
        &self,
        method: MethodKind,
        store: PlanStore<'_>,
        deadline: Deadline,
    ) -> Result<DistanceMatrix, GedError> {
        let solver = self.solver(method)?;
        store.validate()?;
        self.matrix_of(method, solver, store.graphs(), deadline)
    }

    /// Decomposes either store kind into the join plan's band-ordered
    /// [`JoinUnit`]s. A flat store is one unit whose aggregate ranges
    /// come from an O(n) signature sweep (its block tier can only fire
    /// against *other* units); a sharded store yields one unit per shard
    /// with the shard's maintained aggregates. `arm_pivots: false`
    /// (planner, or the left side of a cross-store join) disables the
    /// pivot tier entirely: no index syncing, no member/query bounds.
    fn join_units<'s>(&self, store: PlanStore<'s>, arm_pivots: bool) -> Vec<JoinUnit<'s>> {
        match store {
            PlanStore::Flat(flat) => {
                let entries = flat.entries_by_size();
                let mut nodes = (usize::MAX, 0);
                let mut edges = (usize::MAX, 0);
                for &(_, _, sig) in &entries {
                    nodes = (nodes.0.min(sig.num_nodes()), nodes.1.max(sig.num_nodes()));
                    edges = (edges.0.min(sig.num_edges()), edges.1.max(sig.num_edges()));
                }
                vec![JoinUnit {
                    store: flat,
                    nodes,
                    edges,
                    pivot: self.flat_pivot_block(flat, arm_pivots),
                    entries,
                }]
            }
            PlanStore::Sharded(sharded) => {
                let pivots_on = arm_pivots && sharded.pivots_ready(self.pivot_target);
                sharded
                    .shards()
                    .map(|shard| JoinUnit {
                        store: shard.store(),
                        nodes: (shard.min_nodes(), shard.max_nodes()),
                        edges: (shard.min_edges(), shard.max_edges()),
                        pivot: PivotBlock::of_shard(shard, pivots_on),
                        entries: shard.store().entries_by_size(),
                    })
                    .collect()
            }
        }
    }

    /// Filters one off-diagonal `left-unit × right-unit` block: for each
    /// left row, the band tier narrows the right entries to the one
    /// contiguous window within the size-difference bound
    /// (`partition_point` on the band order), then the window runs the
    /// commutative per-pair tiers. `TwoStores` blocks arm the right
    /// unit's pivot block lazily — once per left row, and only if some
    /// pair of that row actually reaches the pivot tier.
    #[allow(clippy::too_many_arguments)]
    fn filter_cross_block<'s>(
        &self,
        left: &JoinUnit<'s>,
        right: &JoinUnit<'s>,
        kind: CrossKind,
        tau: usize,
        decision: &PlanDecision,
        collapse: bool,
        discards: &mut DiscardCounts,
        stats: &mut JoinStats,
        searches_saved: &mut u64,
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
                let mut pivot = || -> (usize, usize) {
                    match (kind, right.pivot.index()) {
                        (CrossKind::TwoStores, Some(ix)) => {
                            let qd = qdists.get_or_insert_with(|| {
                                self.arm_pivot_block(ix, right.store, ga, sa, &mut ws).0
                            });
                            ix.bounds(qd, ib)
                                .expect("index is synced with its unit store")
                        }
                        // Same-store off-diagonal blocks keep the tier
                        // vacuous (see [`CrossKind::SameStore`]).
                        _ => (0, usize::MAX),
                    }
                };
                match filter_join_pair(decision, collapse, sa, sb, &mut pivot, tau, discards) {
                    PairVerdict::Discarded => {}
                    PairVerdict::Survived {
                        certificate,
                        collapsed_ged,
                    } => {
                        if collapsed_ged.is_some() {
                            *searches_saved += 1;
                        }
                        let (a, b) = match kind {
                            CrossKind::SameStore if ib < ia => (ib, ia),
                            _ => (ia, ib),
                        };
                        let (qa, qb) = canonical_refs(ga, gb);
                        survivors.push(JoinSurvivor {
                            a,
                            b,
                            qa,
                            qb,
                            certificate,
                            collapsed_ged,
                        });
                    }
                }
            }
        }
    }

    /// The unified self-join plan (flat = one-unit case): every
    /// unordered pair of stored graphs with exact GED ≤ τ, through the
    /// block → band → commutative-discard → dedup → verify tier stack.
    /// τ semantics follow [`crate::engine::GedQuery::SelfJoin`];
    /// [`JoinStats::total`] always closes to `n·(n−1)/2`.
    pub(crate) fn plan_self_join(
        &self,
        method: MethodKind,
        store: PlanStore<'_>,
        tau: f64,
        deadline: Deadline,
    ) -> Result<JoinResult, GedError> {
        if tau.is_nan() {
            return Err(GedError::Config(
                "join threshold must not be NaN".to_string(),
            ));
        }
        // Joins never consult the solver; validate the method anyway so
        // `query_as(method, ..)` behaves uniformly.
        let _ = self.solver(method)?;
        store.validate()?;
        let n = store.len();
        let total_pairs = n * (n - 1) / 2;
        if tau < 0.0 {
            return Ok(negative_tau_join(total_pairs));
        }
        let tau = saturate_tau(tau);
        let budget_unlimited = self.verify_budget == usize::MAX;
        let decision = self.plan_decision(QueryShape::Join);
        let collapse = decision.collapse_verify && budget_unlimited;
        let units = self.join_units(store, decision.arm_pivots);
        let pivot_arms_saved = if decision.arm_pivots {
            0
        } else {
            self.pivot_arm_cost(store)
        };

        let mut stats = JoinStats::default();
        let mut discards = DiscardCounts::default();
        let mut searches_saved = 0u64;
        let mut survivors: Vec<JoinSurvivor<'_>> = Vec::new();
        for (i, unit) in units.iter().enumerate() {
            deadline.check()?;
            // A unit's diagonal block can never be block-pruned (its
            // ranges overlap themselves, bound 0), so it goes straight
            // to the band tier.
            filter_self_block(
                unit,
                tau,
                &decision,
                collapse,
                &mut discards,
                &mut stats,
                &mut searches_saved,
                &mut survivors,
            );
            for other in &units[i + 1..] {
                deadline.check()?;
                // Block tier: one aggregate comparison discards the
                // whole shard×shard block of pairs.
                if unit.block_bound(other) > tau {
                    stats.pruned_block += unit.len() * other.len();
                    continue;
                }
                self.filter_cross_block(
                    unit,
                    other,
                    CrossKind::SameStore,
                    tau,
                    &decision,
                    collapse,
                    &mut discards,
                    &mut stats,
                    &mut searches_saved,
                    &mut survivors,
                );
            }
        }
        let result = self.verify_join(tau, deadline, survivors, stats, discards, total_pairs)?;
        self.plan_observe(
            QueryShape::Join,
            TierObservation {
                candidates: total_pairs,
                label: discards.label,
                degree: discards.degree,
                pivot_pruned: discards.pivot,
                pivot_accepted: result.stats.accepted_pivot,
                searches_saved,
                pivot_arms_saved,
                ..TierObservation::default()
            },
        );
        Ok(result)
    }

    /// The unified cross-store join plan: every `(a, b)` pair with `a`
    /// from `left` and `b` from `right` and exact GED ≤ τ — the same
    /// tier stack as [`Self::plan_self_join`] over the
    /// `left-unit × right-unit` block grid. Only the right side arms
    /// pivots (lazily, once per left row per unit). `join(s, s)` is the
    /// *ordered* product — all `n·m` pairs including the diagonal;
    /// symmetric duplicates resolve through the dedup tier as
    /// `cache_hits`. [`JoinStats::total`] always closes to `n·m`.
    pub(crate) fn plan_join<'s>(
        &self,
        method: MethodKind,
        left: PlanStore<'s>,
        right: PlanStore<'s>,
        tau: f64,
        deadline: Deadline,
    ) -> Result<JoinResult, GedError> {
        if tau.is_nan() {
            return Err(GedError::Config(
                "join threshold must not be NaN".to_string(),
            ));
        }
        let _ = self.solver(method)?;
        left.validate()?;
        right.validate()?;
        let total_pairs = left.len() * right.len();
        if tau < 0.0 {
            return Ok(negative_tau_join(total_pairs));
        }
        let tau = saturate_tau(tau);
        let budget_unlimited = self.verify_budget == usize::MAX;
        let decision = self.plan_decision(QueryShape::Join);
        let collapse = decision.collapse_verify && budget_unlimited;
        // Only the right side serves the pivot tier (armed per left
        // row), so left units are always built bare.
        let left_units = self.join_units(left, false);
        let right_units = self.join_units(right, decision.arm_pivots);
        let pivot_arms_saved = if decision.arm_pivots {
            0
        } else {
            self.pivot_arm_cost(right)
        };

        let mut stats = JoinStats::default();
        let mut discards = DiscardCounts::default();
        let mut searches_saved = 0u64;
        let mut survivors: Vec<JoinSurvivor<'s>> = Vec::new();
        for lu in &left_units {
            deadline.check()?;
            for ru in &right_units {
                if lu.block_bound(ru) > tau {
                    stats.pruned_block += lu.len() * ru.len();
                    continue;
                }
                self.filter_cross_block(
                    lu,
                    ru,
                    CrossKind::TwoStores,
                    tau,
                    &decision,
                    collapse,
                    &mut discards,
                    &mut stats,
                    &mut searches_saved,
                    &mut survivors,
                );
            }
        }
        let result = self.verify_join(tau, deadline, survivors, stats, discards, total_pairs)?;
        self.plan_observe(
            QueryShape::Join,
            TierObservation {
                candidates: total_pairs,
                label: discards.label,
                degree: discards.degree,
                pivot_pruned: discards.pivot,
                pivot_accepted: result.stats.accepted_pivot,
                searches_saved,
                pivot_arms_saved,
                ..TierObservation::default()
            },
        );
        Ok(result)
    }

    /// The shared verify tail of both join plans: survivors are put in
    /// ascending `(a, b)` order, deduplicated so each structurally
    /// identical `(pair, certificate, collapsed)` class verifies once
    /// (dupes land in the `cache_hits` tier), representatives run the
    /// τ-bounded prune/verify tiers in parallel (chunked with
    /// cooperative checkpoints under a deadline), and every survivor is
    /// assembled from its class outcome.
    fn verify_join(
        &self,
        tau: usize,
        deadline: Deadline,
        mut survivors: Vec<JoinSurvivor<'_>>,
        mut stats: JoinStats,
        discards: DiscardCounts,
        total_pairs: usize,
    ) -> Result<JoinResult, GedError> {
        stats.filtered += discards.label + discards.degree;
        stats.pruned_pivot += discards.pivot;
        // Blocks were visited in unit order; report pairs in ascending
        // (a, b) id order (the brute-force nested-loop order).
        survivors.sort_by_key(|s| (s.a, s.b));

        // Dedup tier: two survivors whose canonical graphs are
        // structurally identical — and whose certificate and collapsed
        // distance agree, so the verify input is bit-identical — share
        // one deterministic outcome. Keyed by fingerprint with exact
        // graph comparison inside each bucket, so a hash collision can
        // never share a wrong outcome. The first occurrence (smallest
        // (a, b)) is the representative.
        let mut reps: Vec<usize> = Vec::new();
        let mut rep_of: Vec<usize> = Vec::with_capacity(survivors.len());
        let mut classes: HashMap<(u64, Option<usize>, Option<usize>), Vec<usize>> = HashMap::new();
        for (si, s) in survivors.iter().enumerate() {
            let key = (
                join_pair_fingerprint(s.qa, s.qb),
                s.certificate,
                s.collapsed_ged,
            );
            let bucket = classes.entry(key).or_default();
            match bucket.iter().copied().find(|&ri| {
                let r = &survivors[reps[ri]];
                r.qa == s.qa && r.qb == s.qb
            }) {
                Some(ri) => rep_of.push(ri),
                None => {
                    bucket.push(reps.len());
                    rep_of.push(reps.len());
                    reps.push(si);
                }
            }
        }

        // Verify tier: representatives only, per-pair, embarrassingly
        // parallel and deterministic (canonical orientation), so thread
        // count never changes an answer. A pivot-certified pair skips
        // the GEDGW bound and goes straight to the (ub-bounded)
        // exact-distance recovery; a collapsed pair skips the search
        // entirely.
        let rep_rows: Vec<&JoinSurvivor<'_>> = reps.iter().map(|&si| &survivors[si]).collect();
        let run = |ws: &mut GedWorkspace, s: &&JoinSurvivor<'_>| {
            if let Some(ged) = s.collapsed_ged {
                return CandidateOutcome::AcceptedByPivot { ged };
            }
            prune_or_verify_with_pivot_in(s.qa, s.qb, tau, self.verify_budget, s.certificate, ws)
        };
        let outcomes = if deadline.is_set() {
            let mut out = Vec::with_capacity(rep_rows.len());
            for chunk in rep_rows.chunks(self.verify_block_len()) {
                deadline.check()?;
                out.extend(self.runner.map_init(chunk, GedWorkspace::new, run));
            }
            out
        } else {
            self.runner.map_init(&rep_rows, GedWorkspace::new, run)
        };

        let mut pairs = Vec::new();
        let mut budget_exhausted = Vec::new();
        for (si, s) in survivors.iter().enumerate() {
            let ri = rep_of[si];
            let outcome = &outcomes[ri];
            if reps[ri] == si {
                stats.record(outcome);
            } else {
                stats.cache_hits += 1;
            }
            match *outcome {
                CandidateOutcome::AcceptedByPivot { ged }
                | CandidateOutcome::AcceptedEarly { ged }
                | CandidateOutcome::Verified { ged } => {
                    pairs.push(JoinPair {
                        a: s.a,
                        b: s.b,
                        ged,
                    });
                }
                CandidateOutcome::Rejected => {}
                CandidateOutcome::BudgetExhausted { accepted_ub } => {
                    budget_exhausted.push(UndecidedPair {
                        a: s.a,
                        b: s.b,
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
    /// With `collapse` on (adaptive planner), a candidate whose interval
    /// is already tight (`lb == ub`) skips the solver: the clamp pins the
    /// output to `lb` for any prediction (`f64::max` ignores NaN), so the
    /// emitted neighbor is bit-identical either way.
    fn verify(
        &self,
        method: MethodKind,
        solver: &dyn GedSolver,
        query: &Graph,
        store: &GraphStore,
        candidates: &[Candidate],
        collapse: bool,
    ) -> Vec<Neighbor> {
        self.runner
            .map_init(candidates, SolverScratch::new, |scratch, c| {
                if collapse && c.ub != usize::MAX && c.lb == c.ub {
                    return Neighbor {
                        id: c.id,
                        ged: c.lb as f64,
                    };
                }
                let graph = store.get(c.id).expect("candidate ids come from this store");
                let pair = GedPair::new(query.clone(), graph.clone());
                let prediction = self.predict_cached(method, solver, &pair, scratch);
                Neighbor {
                    id: c.id,
                    // f64::max ignores a NaN prediction, keeping the no-panic,
                    // no-NaN contract of the ranking; lb ≤ ub always (both
                    // bound the same exact GED), so the clamp is well formed.
                    ged: prediction.max(c.lb as f64).min(c.ub as f64),
                }
            })
    }
}

/// GED is integral: `GED ≤ τ ⟺ GED ≤ ⌊τ⌋`. `+∞` (and any τ beyond
/// `usize`) saturates to an effectively unbounded threshold — τ is only
/// ever compared, never added, so no overflow.
fn saturate_tau(tau: f64) -> usize {
    if tau.is_infinite() {
        usize::MAX
    } else {
        tau.floor() as usize
    }
}

/// The join answer for a negative τ: every lower bound (≥ 0) exceeds
/// it, so the signature tier accounts every pair and nothing matches.
fn negative_tau_join(total_pairs: usize) -> JoinResult {
    JoinResult {
        pairs: Vec::new(),
        budget_exhausted: Vec::new(),
        stats: JoinStats {
            filtered: total_pairs,
            ..JoinStats::default()
        },
    }
}

/// How many of `candidates` collapsed verification will answer from
/// their tight `lb == ub` interval without a solver call.
fn collapsible(candidates: &[Candidate]) -> u64 {
    candidates
        .iter()
        .filter(|c| c.ub != usize::MAX && c.lb == c.ub)
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_names_round_trip() {
        for shape in [
            QueryShape::TopK,
            QueryShape::Range,
            QueryShape::RangeExact,
            QueryShape::Matrix,
            QueryShape::Join,
        ] {
            assert_eq!(QueryShape::from_name(shape.name()), Some(shape));
        }
        assert_eq!(QueryShape::from_name("nope"), None);
    }

    #[test]
    fn static_decision_matches_legacy_orders() {
        let d = PlanDecision::static_for(QueryShape::Range);
        assert_eq!(
            d.order,
            [FilterTier::Label, FilterTier::Degree, FilterTier::PivotLb]
        );
        assert!(d.arm_pivots);
        assert!(!d.collapse_verify);
        let d = PlanDecision::static_for(QueryShape::RangeExact);
        assert_eq!(
            d.order,
            [FilterTier::PivotLb, FilterTier::Label, FilterTier::Degree]
        );
    }

    #[test]
    fn planner_reorders_only_after_warmup_and_by_efficiency() {
        let mut planner = QueryPlanner::new();
        // Degree does all the work; label and pivot never fire.
        let obs = TierObservation {
            candidates: 100,
            degree: 90,
            ..TierObservation::default()
        };
        for fired in 0..MIN_OBSERVATIONS {
            let d = planner.decision(QueryShape::Range, true);
            assert_eq!(
                d.order,
                QueryShape::Range.static_order(),
                "static until warmed ({fired} observations)"
            );
            planner.observe(QueryShape::Range, obs);
        }
        let d = planner.decision(QueryShape::Range, true);
        assert_eq!(d.order[0], FilterTier::Degree, "highest yield first");
        assert!(d.arm_pivots, "range never skips arming");
        assert!(d.collapse_verify);
    }

    #[test]
    fn pivot_arming_skip_requires_unlimited_budget_and_zero_yield() {
        let mut planner = QueryPlanner::new();
        let dead_pivot = TierObservation {
            candidates: 50,
            label: 40,
            ..TierObservation::default()
        };
        for _ in 0..MIN_OBSERVATIONS + 1 {
            planner.observe(QueryShape::RangeExact, dead_pivot);
        }
        assert!(!planner.decision(QueryShape::RangeExact, true).arm_pivots);
        assert!(
            planner.decision(QueryShape::RangeExact, false).arm_pivots,
            "a finite budget must keep the tier armed"
        );
        // Once the pivot tier shows yield, the skip is withdrawn.
        let firing = TierObservation {
            candidates: 50,
            pivot_pruned: 25,
            ..TierObservation::default()
        };
        for _ in 0..MIN_OBSERVATIONS {
            planner.observe(QueryShape::RangeExact, firing);
        }
        assert!(planner.decision(QueryShape::RangeExact, true).arm_pivots);
    }

    #[test]
    fn explanation_tier_lists_cover_all_shapes() {
        let d = PlanDecision::static_for(QueryShape::RangeExact);
        assert_eq!(
            d.tier_names(QueryShape::RangeExact),
            vec![
                "shard",
                "pivot_lb",
                "label",
                "degree",
                "pivot_ub_accept",
                "gedgw_ub_accept",
                "verify"
            ]
        );
        assert!(d.skipped_names(QueryShape::RangeExact).is_empty());

        let skipping = PlanDecision {
            arm_pivots: false,
            ..d
        };
        assert_eq!(
            skipping.tier_names(QueryShape::RangeExact),
            vec!["shard", "label", "degree", "gedgw_ub_accept", "verify"]
        );
        assert_eq!(
            skipping.skipped_names(QueryShape::RangeExact),
            vec!["pivot_lb", "pivot_ub_accept"]
        );
        assert_eq!(
            PlanDecision::static_for(QueryShape::Matrix).tier_names(QueryShape::Matrix),
            vec!["verify"]
        );
    }
}
