//! Golden-value pin for k-best edit-path generation: one 64-bit digest
//! over the GED and node mapping that `kbest_edit_path` returns for a
//! fixed, seeded pool of graph pairs and couplings, at k = 1, 4 and 16.
//!
//! Every candidate matching comes from a (constrained) LSAP solve, and
//! which of several tied optimal matchings a solve returns decides which
//! subspaces get split. So an LSAP change that keeps optimal costs but
//! breaks ties differently moves this digest even when every GED stays
//! the same. The constant was recorded before the LSAP kernel was last
//! optimized; like `gedgw_golden.rs`, it folds values with
//! `ged_testkit::Fnv1a`.
//!
//! The couplings are those GEDGW computes for AIDS-like pairs, the
//! uniform coupling (every entry tied) and coarsely quantized random
//! couplings (many ties) over `random_connected` pairs of 1–10 nodes.

use ged_testkit::Fnv1a;
use ot_ged::graph::generate;
use ot_ged::linalg::Matrix;
use ot_ged::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The digest of [`pool`] under [`digest`].
const GOLDEN: u64 = 0xe51d_42db_f82e_c8bf;

/// The `k` values every pair is run at.
const KS: [usize; 3] = [1, 4, 16];

/// `(g1, g2)` with the smaller graph first, as `kbest_edit_path` requires.
fn ordered(g1: Graph, g2: Graph) -> (Graph, Graph) {
    if g1.num_nodes() <= g2.num_nodes() {
        (g1, g2)
    } else {
        (g2, g1)
    }
}

/// The seeded pool of `(g1, g2, coupling)` cases (deterministic; ≥ 500).
fn pool() -> Vec<(Graph, Graph, Matrix)> {
    let mut rng = SmallRng::seed_from_u64(0x6B_BE57);
    let mut cases = Vec::new();

    // GEDGW couplings of consecutive AIDS-like graphs.
    let aids: Vec<Graph> = GraphDataset::build(DatasetKind::Aids, 241, &mut rng)
        .store()
        .graphs()
        .cloned()
        .collect();
    for w in aids.windows(2) {
        let (g1, g2) = ordered(w[0].clone(), w[1].clone());
        let pi = Gedgw::new(&g1, &g2).solve().coupling;
        cases.push((g1, g2, pi));
    }

    let weights = [0.5, 0.3, 0.2];
    for i in 0..300 {
        let (n1, n2) = (rng.gen_range(1..=10), rng.gen_range(1..=10));
        let g1 = generate::random_connected(n1, rng.gen_range(0..=n1 / 2), &weights, &mut rng);
        let g2 = generate::random_connected(n2, rng.gen_range(0..=n2 / 2), &weights, &mut rng);
        let (g1, g2) = ordered(g1, g2);
        let (r, c) = (g1.num_nodes(), g2.num_nodes());
        let pi = if i % 2 == 0 {
            // The uniform coupling: every matching weighs the same.
            Matrix::from_fn(r, c, |_, _| 1.0 / c as f64)
        } else {
            Matrix::from_fn(r, c, |_, _| f64::from(rng.gen_range(0..4u8)) / 4.0)
        };
        cases.push((g1, g2, pi));
    }
    cases
}

/// Folds every k-best result over `cases` and [`KS`] into one digest.
fn digest(cases: &[(Graph, Graph, Matrix)]) -> u64 {
    let mut h = Fnv1a::new();
    for (g1, g2, pi) in cases {
        for k in KS {
            let res = kbest_edit_path(g1, g2, pi, k);
            h.write_u64(res.ged as u64);
            h.write_u64(res.candidates as u64);
            let mapping = res.mapping.as_slice();
            h.write_u64(mapping.len() as u64);
            for &v in mapping {
                h.write_u64(u64::from(v));
            }
        }
    }
    h.finish()
}

#[test]
fn kbest_results_match_the_golden_digest() {
    let cases = pool();
    assert!(cases.len() >= 500, "pool has {} cases", cases.len());
    let got = digest(&cases);
    assert_eq!(
        got, GOLDEN,
        "k-best digest changed: got {got:#018x}, want {GOLDEN:#018x}"
    );
}
