//! Exact range search: retrieve every store graph whose **exact** GED to
//! a query is ≤ τ — the paper's headline threshold workload (Section 2) —
//! via the engine's three-tier filter–prune–verify plan:
//!
//! 1. signature-fed label-set / degree-sequence lower bounds *discard*,
//! 2. the feasible GEDGW best-matching-rounding upper bound *accepts*
//!    without τ-bounded search,
//! 3. survivors run the τ-bounded exact A* in parallel, each capped by
//!    the engine's verify budget.
//!
//! Also shows the τ = ∞ degradation to plain exact GED computation and
//! how a tiny budget surfaces undecided candidates per id instead of
//! stalling the whole query.
//!
//! Run with: `cargo run --release --example exact_range_search`

use ot_ged::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let mut rng = SmallRng::seed_from_u64(2028);

    // An AIDS-like compound store; rich labels make the filter tier bite.
    let store = GraphDataset::aids_like(80, &mut rng).into_store();
    let query = store.graphs().next().expect("non-empty").clone();
    println!("store: {} compounds", store.len());
    println!(
        "query: {} nodes / {} edges (a member of the store)\n",
        query.num_nodes(),
        query.num_edges()
    );

    // Exact search never consults a solver, but the engine still wants a
    // registry for its approximate queries.
    let mut registry = SolverRegistry::new();
    registry.register(MethodKind::Gedgw, Box::new(GedgwSolver));
    let engine = GedEngine::builder(registry)
        .build()
        .expect("GEDGW is registered");

    println!(
        "{:>5} {:>8} {:>9} {:>15} {:>9} {:>7}",
        "tau", "matches", "filtered", "accepted-early", "verified", "budget"
    );
    for tau in [1.0, 2.0, 4.0, 6.0] {
        let result = engine
            .query(GedQuery::RangeExact {
                query: &query,
                store: (&store).into(),
                tau,
            })
            .expect("valid query")
            .into_range_exact()
            .expect("RangeExact yields RangeExact");
        println!(
            "{tau:>5} {:>8} {:>9} {:>15} {:>9} {:>7}",
            result.matches.len(),
            result.stats.filtered,
            result.stats.accepted_early,
            result.stats.verified,
            result.stats.budget_exceeded,
        );
    }

    // Matches carry exact distances, in deterministic id order.
    let result = engine
        .range_exact(&query, &store, 4.0)
        .expect("valid query");
    println!("\nexact matches within GED ≤ 4:");
    for m in &result.matches {
        println!("  graph {:>5}: exact GED {}", m.id, m.ged);
    }

    // Every reported distance is provably exact: re-check against the
    // τ-bounded exact search directly.
    for m in &result.matches {
        let direct = bounded_exact_ged(&query, &store[m.id], 4).expect("must match");
        assert_eq!(direct, m.ged);
    }
    println!("distances re-verified against bounded exact search ✓");

    // τ = ∞ degrades to exact GED computation over the whole store —
    // demonstrated on a slice so the unbounded searches stay tiny.
    let slice = GraphStore::from_graphs(store.graphs().take(12).cloned());
    let all = engine
        .range_exact(&query, &slice, f64::INFINITY)
        .expect("valid query");
    println!(
        "\nτ = ∞ over a {}-graph slice: {} matches (full exact scan, {} filtered)",
        slice.len(),
        all.matches.len(),
        all.stats.filtered
    );

    // A deliberately strangled budget: pathological candidates surface
    // per id as `budget_exhausted` instead of poisoning the query.
    let mut registry = SolverRegistry::new();
    registry.register(MethodKind::Gedgw, Box::new(GedgwSolver));
    let strangled = GedEngine::builder(registry)
        .verify_budget(2)
        .build()
        .expect("valid configuration");
    let partial = strangled
        .range_exact(&query, &store, 4.0)
        .expect("budget exhaustion is not an error");
    let proven = partial
        .budget_exhausted
        .iter()
        .filter(|u| u.known_match_ub.is_some())
        .count();
    println!(
        "\nwith a 2-expansion verify budget: {} decided matches, {} unresolved candidate(s) \
         ({proven} with membership already proven by the upper bound)",
        partial.matches.len(),
        partial.budget_exhausted.len()
    );

    // Misuse stays a typed error.
    let err = strangled.range_exact(&query, &store, f64::NAN).unwrap_err();
    println!("NaN threshold: {err}");
}
