//! Range similarity search: retrieve every store graph within GED ≤ τ of
//! a query — the threshold workload of classic GED search systems — via
//! the engine's filter–verify plan, then shrink τ and watch the filter
//! tiers discard more candidates before any solver call.
//!
//! Also demonstrates that a [`GraphStore`] is a live collection:
//! inserting and removing graphs between queries just works, with stable
//! ids, and misuse (a removed id, an empty store) surfaces as typed
//! [`GedError`]s instead of panics.
//!
//! Run with: `cargo run --release --example range_search`

use ot_ged::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let mut rng = SmallRng::seed_from_u64(2027);

    // An AIDS-like compound store; labels make the label-set bound bite.
    let mut store = GraphDataset::aids_like(80, &mut rng).into_store();
    println!("store: {} compounds", store.len());

    let mut registry = SolverRegistry::new();
    registry.register(MethodKind::Gedgw, Box::new(GedgwSolver));
    let engine = GedEngine::builder(registry)
        .build()
        .expect("GEDGW is registered");

    let query = GraphDataset::aids_like(1, &mut rng)
        .graphs()
        .next()
        .expect("one graph")
        .clone();
    println!(
        "query: {} nodes / {} edges\n",
        query.num_nodes(),
        query.num_edges()
    );

    println!(
        "{:>5} {:>8} {:>13} {:>14} {:>14} {:>9}",
        "tau", "matches", "pruned:label", "pruned:degree", "pruned:branch", "verified"
    );
    for tau in [12.0, 8.0, 5.0, 3.0] {
        let result = engine
            .query(GedQuery::Range {
                query: &query,
                store: (&store).into(),
                tau,
            })
            .expect("valid query")
            .into_range()
            .expect("Range yields Range");
        println!(
            "{tau:>5} {:>8} {:>13} {:>14} {:>14} {:>9}",
            result.neighbors.len(),
            result.stats.pruned_label,
            result.stats.pruned_degree,
            result.stats.pruned_branch,
            result.stats.verified
        );
    }

    // The store is incremental: drop the best match and search again.
    let best = engine
        .range(&query, &store, 12.0)
        .expect("valid query")
        .neighbors[0];
    println!("\nclosest compound: {} at GED {:.3}", best.id, best.ged);
    store.remove(best.id);
    let rerun = engine.range(&query, &store, 12.0).expect("valid query");
    assert!(rerun.neighbors.iter().all(|n| n.id != best.id));
    println!(
        "after removing it, the closest is {} at GED {:.3}",
        rerun.neighbors[0].id, rerun.neighbors[0].ged
    );

    // Misuse is a typed error, never a panic.
    assert!(
        store.get(best.id).is_none(),
        "the removed id no longer resolves"
    );
    let err = engine.top_k(&query, &store, 0).unwrap_err();
    println!("a top-0 query:              {err}");
    let err = engine.range(&query, &GraphStore::new(), 5.0).unwrap_err();
    println!("range over an empty store:  {err}");
}
