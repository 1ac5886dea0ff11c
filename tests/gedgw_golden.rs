//! Golden-value pin for GEDGW: one 64-bit digest over the exact bits of
//! every solve in a fixed, seeded pool of graph pairs.
//!
//! Kernel optimizations of the conditional-gradient loop and the
//! `L ⊗ π` product must not move a single bit of any GEDGW result. This
//! test folds `ged.to_bits()`, the coupling's shape and every coupling
//! entry's bits, and the iteration count of ≥ 2,000 solves into one
//! FNV-1a hash (a fixed function, unlike `DefaultHasher`, whose output
//! may change between Rust releases) and compares it with a constant
//! recorded before the kernels were last optimized.
//!
//! The pool covers AIDS-like pairs, `random_connected` graphs of 1–12
//! nodes in both orders (so padded `n1 < n2` solves and swapped pairs
//! both occur), graphs with an isolated node, and the empty graph.

use ged_testkit::Fnv1a;
use ot_ged::graph::generate;
use ot_ged::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The digest of [`pool`] under [`digest`].
const GOLDEN: u64 = 0xe105_286c_356c_d56c;

/// `g` plus one extra node with no edges.
fn with_isolated_node(mut g: Graph, label: u32) -> Graph {
    g.add_node(Label(label));
    g
}

/// The seeded pair pool (deterministic; ≥ 2,000 pairs).
fn pool() -> Vec<(Graph, Graph)> {
    let mut rng = SmallRng::seed_from_u64(0x60_1DE2);
    let mut pairs = Vec::new();

    // AIDS-like: consecutive graphs of one dataset (4–10 nodes, skewed
    // 29-label alphabet).
    let aids: Vec<Graph> = GraphDataset::build(DatasetKind::Aids, 801, &mut rng)
        .store()
        .graphs()
        .cloned()
        .collect();
    pairs.extend(aids.windows(2).map(|w| (w[0].clone(), w[1].clone())));

    // random_connected, 1–12 nodes each, sizes independent, so both
    // n1 < n2 (padded), n1 == n2 and n1 > n2 (swapped) occur.
    let weights = [0.5, 0.3, 0.2];
    for _ in 0..1_200 {
        let (n1, n2) = (rng.gen_range(1..=12), rng.gen_range(1..=12));
        let e1 = rng.gen_range(0..=n1 / 2);
        let e2 = rng.gen_range(0..=n2 / 2);
        let g1 = generate::random_connected(n1, e1, &weights, &mut rng);
        let g2 = generate::random_connected(n2, e2, &weights, &mut rng);
        pairs.push((g1, g2));
    }

    // Isolated nodes (zero rows in the adjacency) on one or both sides.
    for _ in 0..100 {
        let (n1, n2) = (rng.gen_range(1..=8), rng.gen_range(1..=8));
        let g1 = generate::random_connected(n1, 1, &weights, &mut rng);
        let g2 = generate::random_connected(n2, 1, &weights, &mut rng);
        let iso1 = with_isolated_node(g1.clone(), rng.gen_range(0..3));
        let iso2 = with_isolated_node(g2.clone(), rng.gen_range(0..3));
        pairs.push((iso1.clone(), g2));
        pairs.push((g1, iso2.clone()));
        pairs.push((iso1, iso2));
    }

    // The empty graph against itself and against small graphs.
    pairs.push((Graph::new(), Graph::new()));
    for n in 1..=6 {
        let g = generate::random_connected(n, 1, &weights, &mut rng);
        pairs.push((Graph::new(), g.clone()));
        pairs.push((g, Graph::new()));
    }
    pairs
}

/// Folds every GEDGW result over `pairs` into one FNV-1a digest.
fn digest(pairs: &[(Graph, Graph)]) -> u64 {
    let mut h = Fnv1a::new();
    for (g1, g2) in pairs {
        let res = Gedgw::new(g1, g2).solve();
        h.write_u64(res.ged.to_bits());
        let (rows, cols) = res.coupling.shape();
        h.write_u64(rows as u64);
        h.write_u64(cols as u64);
        for x in res.coupling.as_slice() {
            h.write_u64(x.to_bits());
        }
        h.write_u64(res.iterations as u64);
    }
    h.finish()
}

#[test]
fn gedgw_results_match_the_golden_digest() {
    let pairs = pool();
    assert!(pairs.len() >= 2_000, "pool has {} pairs", pairs.len());
    let got = digest(&pairs);
    assert_eq!(
        got, GOLDEN,
        "GEDGW digest changed: got {got:#018x}, want {GOLDEN:#018x}"
    );
}
