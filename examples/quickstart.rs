//! Quickstart: answer GED queries for the paper's Figure 1 pair through
//! the [`GedEngine`] query API — value estimates, a concrete edit path,
//! method selection, and typed error handling — then cross-check against
//! exact A*.
//!
//! Run with: `cargo run --release --example quickstart`

use ot_ged::baselines::solvers::ClassicSolver;
use ot_ged::core::pairs::GedPair;
use ot_ged::prelude::*;

fn main() {
    // Figure 1 of the paper: G1 is a labeled triangle, G2 adds a node and
    // rewires an edge. Exact GED = 4.
    let g1 = Graph::from_edges(
        vec![Label(1), Label(1), Label(2)],
        &[(0, 1), (0, 2), (1, 2)],
    );
    let g2 = Graph::from_edges(
        vec![Label(1), Label(1), Label(3), Label(4)],
        &[(0, 1), (0, 2), (2, 3)],
    );

    println!("G1: {} nodes / {} edges", g1.num_nodes(), g1.num_edges());
    println!("G2: {} nodes / {} edges", g2.num_nodes(), g2.num_edges());

    // Build an engine over the training-free methods. Method kinds are
    // typed — a CLI would parse them with `"gedgw".parse::<MethodKind>()`.
    let mut registry = SolverRegistry::new();
    registry.register(MethodKind::Gedgw, Box::new(GedgwSolver));
    registry.register(MethodKind::Classic, Box::new(ClassicSolver));
    let engine = GedEngine::builder(registry)
        .method(MethodKind::Gedgw)
        .beam_width(20)
        .build()
        .expect("GEDGW is registered");

    // 1. Exact GED via A* for reference (fine for graphs up to ~10 nodes).
    let exact = astar_exact(&g1, &g2);
    println!("\nExact A*:        GED = {}", exact.ged);

    // 2. Unsupervised optimal-transport estimate (GEDGW, Section 5).
    let estimate = engine.ged(&g1, &g2).expect("non-empty inputs");
    println!("GEDGW estimate:  {estimate}");

    // 3. A feasible edit path via the k-best matching framework on the
    //    GEDGW coupling (Section 4.5).
    let path = engine.edit_path(&g1, &g2).expect("GEDGW generates paths");
    println!("GEDGW + k-best:  {path}");
    println!("\nEdit path transforming G1 into G2:");
    for (i, op) in path.ops.iter().enumerate() {
        println!("  {}. {:?}", i + 1, op);
    }

    // Verify end-to-end: the mapping the engine returned realizes an
    // edit path that really produces G2 (up to isomorphism).
    let applied = path
        .mapping
        .edit_path(&g1, &g2)
        .apply(&g1)
        .expect("path must be applicable");
    assert!(ot_ged::graph::isomorphism::are_isomorphic(&applied, &g2));
    println!("\nPath verified: applying it to G1 yields a graph isomorphic to G2.");

    // 4. Method selection: the classical baseline through the same engine.
    let pair = GedPair::new(g1.clone(), g2.clone());
    let classic = engine
        .query_with(
            GedQuery::Value { pair: &pair },
            QueryOpts::with_method(MethodKind::Classic),
        )
        .expect("Classic is registered")
        .into_value()
        .expect("a Value query answers Value");
    println!("\nClassic (Hungarian/VJ): {classic}");

    // 5. Errors are typed, not panics: an unregistered method and an
    //    empty input graph both come back as `GedError`.
    let err = engine
        .query_with(
            GedQuery::Value { pair: &pair },
            QueryOpts::with_method(MethodKind::Gediot),
        )
        .unwrap_err();
    println!("\nquerying an unregistered method: {err}");
    let err = engine.ged(&Graph::new(), &g2).unwrap_err();
    println!("querying an empty graph:        {err}");
}
