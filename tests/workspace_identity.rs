//! Bit-identity tests for the workspace-backed `_in` kernels and the flat
//! CSR graph view.
//!
//! The allocation-free entry points (`lsap_min_in`, `sinkhorn_in`,
//! `conditional_gradient_in`, `Gedgw::solve_in`, ...) promise results
//! bit-identical to their allocating counterparts for *any* workspace
//! state. Each property here reuses a single workspace across all cases —
//! so from case two onward the scratch buffers are dirty, and often sized
//! for a different problem — and compares against a fresh allocating call
//! with `f64::to_bits` equality, never an epsilon.
//!
//! Like `tests/properties.rs`, these use a hand-rolled seeded generator
//! loop instead of `proptest` (the build environment is offline); every
//! assertion message carries the case seed.

use ot_ged::baselines::astar::{astar_beam, astar_beam_in, BeamWorkspace};
use ot_ged::core::gedgw::Gedgw;
use ot_ged::core::gediot::ConvKind;
use ot_ged::core::kbest::{kbest_edit_path, kbest_edit_path_in};
use ot_ged::core::search::{
    bounded_exact_ged_with_budget, bounded_exact_ged_with_budget_in, pivot_distance,
    pivot_distance_in,
};
use ot_ged::core::GedWorkspace;
use ot_ged::graph::CsrView;
use ot_ged::linalg::{
    best_matching, best_matching_in, lsap_min, lsap_min_in, lsap_min_munkres, lsap_min_munkres_in,
    second_best_matching, second_best_matching_in, LsapWorkspace, MatchingWorkspace, Matrix,
};
use ot_ged::ot::{
    conditional_gradient, conditional_gradient_in, sinkhorn, sinkhorn_dummy_row,
    sinkhorn_dummy_row_in, sinkhorn_in, sinkhorn_log, sinkhorn_log_in, CgOptions, OtWorkspace,
};
use ot_ged::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 48;

fn random_matrix(rows: usize, cols: usize, rng: &mut SmallRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-3.0..3.0))
}

/// Asserts two matrices are equal down to the last mantissa bit.
fn assert_bits_eq(got: &Matrix, want: &Matrix, ctx: &str) {
    assert_eq!(got.shape(), want.shape(), "{ctx}: shape");
    for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
        assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: {g} vs {w}");
    }
}

/// A small connected labeled graph (same generator as tests/properties.rs).
fn small_graph(max_n: usize, labels: u32, rng: &mut SmallRng) -> Graph {
    let n = rng.gen_range(2..=max_n);
    let mut g = Graph::new();
    for _ in 0..n {
        g.add_node(Label(rng.gen_range(0..labels)));
    }
    for i in 1..n as u32 {
        let j = rng.gen_range(0..i);
        g.add_edge(i, j);
    }
    for _ in 0..n {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u != v && !g.has_edge(u, v) {
            g.add_edge(u, v);
        }
    }
    g
}

/// `lsap_min_in` / `lsap_min_munkres_in` match the allocating solvers
/// exactly — same assignment vector, same cost bits — on a workspace that
/// stays dirty across matrices of varying shape.
#[test]
fn lsap_in_is_bit_identical() {
    let mut ws = LsapWorkspace::new();
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xB17_0001 + case);
        let n = rng.gen_range(1usize..=7);
        let m = n + rng.gen_range(0usize..=3);
        let cost = random_matrix(n, m, &mut rng);

        let want = lsap_min(&cost);
        let got = lsap_min_in(&cost, &mut ws);
        assert_eq!(
            got.row_to_col, want.row_to_col,
            "case {case}: jv assignment"
        );
        assert_eq!(
            got.cost.to_bits(),
            want.cost.to_bits(),
            "case {case}: jv cost"
        );

        let want = lsap_min_munkres(&cost);
        let got = lsap_min_munkres_in(&cost, &mut ws);
        assert_eq!(
            got.row_to_col, want.row_to_col,
            "case {case}: munkres assignment"
        );
        assert_eq!(
            got.cost.to_bits(),
            want.cost.to_bits(),
            "case {case}: munkres cost"
        );
    }
}

/// All three Sinkhorn entry points produce bit-identical couplings through
/// a shared dirty workspace.
#[test]
fn sinkhorn_in_is_bit_identical() {
    let mut ws = OtWorkspace::new();
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xB17_0002 + case);
        let n1 = rng.gen_range(1usize..=5);
        let n2 = n1 + rng.gen_range(0usize..=3);
        let cost = random_matrix(n1, n2, &mut rng);

        // Balanced form needs equal-mass marginals.
        let square = random_matrix(n2, n2, &mut rng);
        let mu: Vec<f64> = (0..n2).map(|i| 1.0 + i as f64 / n2 as f64).collect();
        let total: f64 = mu.iter().sum();
        let nu = vec![total / n2 as f64; n2];
        let want = sinkhorn(&square, &mu, &nu, 0.2, 60);
        let got = sinkhorn_in(&square, &mu, &nu, 0.2, 60, &mut ws);
        assert_bits_eq(&got.coupling, &want.coupling, "balanced coupling");
        assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "case {case}: cost");

        let want = sinkhorn_dummy_row(&cost, 0.1, 80);
        let got = sinkhorn_dummy_row_in(&cost, 0.1, 80, &mut ws);
        assert_bits_eq(&got.coupling, &want.coupling, "dummy-row coupling");
        assert_eq!(
            got.cost.to_bits(),
            want.cost.to_bits(),
            "case {case}: dummy-row cost"
        );

        let want = sinkhorn_log(&square, &mu, &nu, 0.2, 60);
        let got = sinkhorn_log_in(&square, &mu, &nu, 0.2, 60, &mut ws);
        assert_bits_eq(&got.coupling, &want.coupling, "log-domain coupling");
    }
}

/// `conditional_gradient_in` reproduces the allocating Frank–Wolfe run
/// bit-for-bit: same coupling, same objective, same iteration history.
#[test]
fn conditional_gradient_in_is_bit_identical() {
    let mut ws = OtWorkspace::new();
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xB17_0003 + case);
        let n = rng.gen_range(2usize..=6);
        let linear = random_matrix(n, n, &mut rng);
        let c1 = random_matrix(n, n, &mut rng);
        let c2 = random_matrix(n, n, &mut rng);
        let init = Matrix::filled(n, n, 1.0 / n as f64);
        let opts = CgOptions {
            max_iter: 25,
            tol: 1e-9,
            quad_weight: 1.0,
        };

        let want = conditional_gradient(&linear, &c1, &c2, init.clone(), &opts);
        let mut pi = init;
        let run = conditional_gradient_in(&linear, &c1, &c2, &mut pi, &opts, &mut ws);
        assert_bits_eq(&pi, &want.coupling, "cg coupling");
        assert_eq!(
            run.objective.to_bits(),
            want.objective.to_bits(),
            "case {case}: objective"
        );
        assert_eq!(run.iterations, want.iterations, "case {case}: iterations");
        assert_eq!(
            ws.cg_history().len(),
            want.history.len(),
            "case {case}: history"
        );
        for (g, w) in ws.cg_history().iter().zip(&want.history) {
            assert_eq!(g.to_bits(), w.to_bits(), "case {case}: history entry");
        }
    }
}

/// The full GEDGW solve and the A*-based search helpers agree with their
/// allocating forms through one shared (dirty) `GedWorkspace`.
#[test]
fn core_workspace_paths_are_bit_identical() {
    let mut ws = GedWorkspace::new();
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xB17_0004 + case);
        let g1 = small_graph(5, 3, &mut rng);
        let g2 = small_graph(6, 3, &mut rng);

        let want = Gedgw::new(&g1, &g2).solve();
        let got = Gedgw::new(&g1, &g2).solve_in(&mut ws);
        assert_eq!(
            got.ged.to_bits(),
            want.ged.to_bits(),
            "case {case}: GEDGW objective"
        );
        assert_bits_eq(&got.coupling, &want.coupling, "GEDGW coupling");

        assert_eq!(
            pivot_distance_in(&g1, &g2, 0, &mut ws),
            pivot_distance(&g1, &g2, 0),
            "case {case}: pivot distance interval"
        );

        let tau = rng.gen_range(0usize..=6);
        let budget = *[8usize, 64, usize::MAX].get(case as usize % 3).unwrap();
        assert_eq!(
            bounded_exact_ged_with_budget_in(&g1, &g2, tau, budget, &mut ws),
            bounded_exact_ged_with_budget(&g1, &g2, tau, budget),
            "case {case}: bounded search verdict"
        );
    }
}

/// GEDIOT and GEDHOT through one shared `GedWorkspace` equal a fresh
/// `predict` bit for bit. The workspace's tape pool is left dirty by pairs
/// of other sizes (in both orders, so swapped pairs occur), by GEDGW
/// solves, and by models of other configurations, whose tapes have other
/// node counts and other shapes at every node.
#[test]
fn gediot_and_gedhot_workspace_predictions_are_bit_identical() {
    let mut rng = SmallRng::seed_from_u64(0xB17_0010);
    let small = GediotConfig::small(3);
    let configs = [
        small.clone(),
        GediotConfig {
            conv: ConvKind::Gcn,
            ..small.clone()
        },
        GediotConfig {
            use_mlp: false,
            use_cost_layer: false,
            ..small.clone()
        },
        GediotConfig {
            learnable_epsilon: false,
            conv_dims: vec![12, 6],
            embed_dim: 5,
            ..small
        },
    ];
    let models: Vec<Gediot> = configs
        .into_iter()
        .map(|c| Gediot::new(c, &mut rng))
        .collect();
    let mut ws = GedWorkspace::new();
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xB17_0011 + case);
        let model = &models[case as usize % models.len()];
        let g1 = small_graph(10, 3, &mut rng);
        let g2 = small_graph(10, 3, &mut rng);

        let want = model.predict(&g1, &g2);
        let got = model.predict_in(&g1, &g2, &mut ws);
        assert_eq!(
            got.ged.to_bits(),
            want.ged.to_bits(),
            "case {case}: GEDIOT ged"
        );
        assert_eq!(
            got.nged.to_bits(),
            want.nged.to_bits(),
            "case {case}: GEDIOT nged"
        );
        assert_eq!(got.swapped, want.swapped, "case {case}: GEDIOT orientation");
        assert_bits_eq(&got.coupling, &want.coupling, "GEDIOT coupling");

        let ens = Gedhot::new(model);
        let want = ens.predict(&g1, &g2);
        let got = ens.predict_in(&g1, &g2, &mut ws);
        assert_eq!(
            got.ged.to_bits(),
            want.ged.to_bits(),
            "case {case}: GEDHOT ged"
        );
        assert_eq!(
            got.gediot_ged.to_bits(),
            want.gediot_ged.to_bits(),
            "case {case}: GEDHOT's GEDIOT member"
        );
        assert_eq!(
            got.gedgw_ged.to_bits(),
            want.gedgw_ged.to_bits(),
            "case {case}: GEDHOT's GEDGW member"
        );
        assert_eq!(
            got.value_source, want.value_source,
            "case {case}: GEDHOT source"
        );
    }
}

/// `best_matching_in` / `second_best_matching_in` reproduce the
/// allocating matching-layer calls exactly — same assignment, same weight
/// bits — through one dirty `MatchingWorkspace`.
#[test]
fn matching_in_is_bit_identical() {
    let mut ws = MatchingWorkspace::new();
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xB17_0006 + case);
        let n = rng.gen_range(2usize..=6);
        let m = n + rng.gen_range(0usize..=2);
        let weights = random_matrix(n, m, &mut rng);
        let forced: Vec<(usize, usize)> = if rng.gen_bool(0.5) {
            vec![(0, rng.gen_range(0..m))]
        } else {
            Vec::new()
        };
        let mut forbidden: Vec<(usize, usize)> = Vec::new();
        for _ in 0..rng.gen_range(0usize..=3) {
            forbidden.push((rng.gen_range(0..n), rng.gen_range(0..m)));
        }

        let want = best_matching(&weights, &forced, &forbidden);
        let got = best_matching_in(&weights, &forced, &forbidden, &mut ws);
        match (&got, &want) {
            (Some(g), Some(w)) => {
                assert_eq!(g.row_to_col, w.row_to_col, "case {case}: best assignment");
                assert_eq!(g.cost.to_bits(), w.cost.to_bits(), "case {case}: best cost");
            }
            (None, None) => {}
            _ => panic!("case {case}: best feasibility mismatch"),
        }

        if let Some(best) = &want {
            let want2 = second_best_matching(&weights, &forced, &forbidden, best);
            let got2 = second_best_matching_in(&weights, &forced, &forbidden, best, &mut ws);
            match (&got2, &want2) {
                (Some(g), Some(w)) => {
                    assert_eq!(g.row_to_col, w.row_to_col, "case {case}: second assignment");
                    assert_eq!(
                        g.cost.to_bits(),
                        w.cost.to_bits(),
                        "case {case}: second cost"
                    );
                }
                (None, None) => {}
                _ => panic!("case {case}: second feasibility mismatch"),
            }
        }
    }
}

/// The batch-level `_in` entry points added for workspace reuse —
/// `kbest_edit_path_in`, `astar_beam_in` — match their allocating forms
/// exactly through shared dirty workspaces.
#[test]
fn batch_entry_points_are_bit_identical() {
    let mut mws = MatchingWorkspace::new();
    let mut bws = BeamWorkspace::new();
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xB17_0007 + case);
        let a = small_graph(5, 3, &mut rng);
        let b = small_graph(6, 3, &mut rng);
        let (g1, g2) = if a.num_nodes() <= b.num_nodes() {
            (&a, &b)
        } else {
            (&b, &a)
        };

        let pi = Gedgw::new(g1, g2).solve().coupling;
        let k = rng.gen_range(1usize..=20);
        let want = kbest_edit_path(g1, g2, &pi, k);
        let got = kbest_edit_path_in(g1, g2, &pi, k, &mut mws);
        assert_eq!(got.ged, want.ged, "case {case}: kbest ged");
        assert_eq!(got.mapping, want.mapping, "case {case}: kbest mapping");
        assert_eq!(
            got.candidates, want.candidates,
            "case {case}: kbest candidates"
        );

        let beam = rng.gen_range(1usize..=30);
        let want = astar_beam(&a, &b, beam);
        let got = astar_beam_in(&a, &b, beam, &mut bws);
        assert_eq!(got.ged, want.ged, "case {case}: beam ged");
        assert_eq!(got.mapping, want.mapping, "case {case}: beam mapping");
        assert_eq!(got.expanded, want.expanded, "case {case}: beam expansions");
        assert_eq!(got.swapped, want.swapped, "case {case}: beam orientation");
    }
}

/// `CsrView` is a faithful flat image of `Graph` adjacency: labels,
/// degrees, neighbor lists, edge sets, and membership queries all agree,
/// both freshly built and rebuilt over a dirty view, on the ged-testkit
/// fixture stores and on random graphs.
#[test]
fn csr_view_round_trips_graph_adjacency() {
    let mut dirty = CsrView::default();
    let mut check = |g: &Graph, ctx: &str| {
        dirty.rebuild_from(g);
        for view in [&CsrView::of(g), &dirty] {
            assert_eq!(view.num_nodes(), g.num_nodes(), "{ctx}: node count");
            assert_eq!(view.num_edges(), g.num_edges(), "{ctx}: edge count");
            for u in 0..g.num_nodes() as u32 {
                assert_eq!(view.label(u), g.label(u), "{ctx}: label of {u}");
                assert_eq!(view.neighbors(u), g.neighbors(u), "{ctx}: neighbors of {u}");
                assert_eq!(view.degree(u), g.neighbors(u).len(), "{ctx}: degree of {u}");
                for v in 0..g.num_nodes() as u32 {
                    assert_eq!(
                        view.has_edge(u, v),
                        g.has_edge(u, v),
                        "{ctx}: has_edge({u}, {v})"
                    );
                }
            }
            let mut got: Vec<(u32, u32)> = view.edges().collect();
            let mut want: Vec<(u32, u32)> = g.edges().map(|(u, v)| (u.min(v), u.max(v))).collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "{ctx}: edge set");
        }
    };

    for dataset in ged_testkit::property_stores() {
        let name = dataset.kind.name();
        for (i, g) in dataset.store().graphs().enumerate() {
            check(g, &format!("{name}[{i}]"));
        }
    }
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xB17_0005 + case);
        let g = small_graph(8, 4, &mut rng);
        check(&g, &format!("random[{case}]"));
    }
}
