//! Golden-value pin for GEDIOT: one 64-bit digest over the exact bits of
//! every prediction in a fixed, seeded pool of graph pairs, and one over a
//! short seeded training run.
//!
//! The network's forward pass runs on the autodiff tape, whose buffers
//! are recycled from a pool. Recycling must not move a single bit: the
//! prediction digest folds `ged`, `nged`, `swapped`, the coupling's shape
//! and every coupling entry's bits for four model configurations (the
//! small default, GCN convolutions, no MLP with no cost layer, frozen ε);
//! the training digest folds every epoch's mean loss and the final value
//! of every parameter. Both use FNV-1a (a fixed function, unlike
//! `DefaultHasher`), and the constants were recorded before the tape
//! pooled its buffers.

use ged_testkit::Fnv1a;
use ot_ged::core::gediot::ConvKind;
use ot_ged::core::pairs::GedPair;
use ot_ged::graph::generate;
use ot_ged::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The digest of [`predictions`] over [`pool`] for every config in
/// [`configs`].
const PREDICT_GOLDEN: u64 = 0x1792_a691_5cc2_8946;
/// The digest of [`training`].
const TRAIN_GOLDEN: u64 = 0x4df5_a448_a44d_e7b3;

const NUM_LABELS: usize = 3;

/// The model configurations the prediction digest covers.
fn configs() -> Vec<GediotConfig> {
    let small = GediotConfig {
        batch_size: 8,
        learning_rate: 5e-3,
        ..GediotConfig::small(NUM_LABELS)
    };
    vec![
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
            ..small
        },
    ]
}

/// Supervised pairs: a random graph and a perturbed copy of it.
fn training_pairs(count: usize, rng: &mut SmallRng) -> Vec<GedPair> {
    (0..count)
        .map(|i| {
            let g = generate::random_connected(4 + i % 5, 1 + i % 3, &[0.5, 0.3, 0.2], rng);
            let p = generate::perturb_with_edits(&g, 1 + i % 4, NUM_LABELS as u32, rng);
            GedPair::supervised(g, p.graph, p.applied as f64, p.mapping)
        })
        .collect()
}

/// The seeded pair pool: sizes 1–16 in both orders (so swapped pairs
/// occur), equal sizes, and identical graphs.
fn pool() -> Vec<(Graph, Graph)> {
    let mut rng = SmallRng::seed_from_u64(0x10_7DE2);
    let weights = [0.5, 0.3, 0.2];
    let mut pairs = Vec::new();
    for _ in 0..300 {
        let (n1, n2) = (rng.gen_range(1..=16), rng.gen_range(1..=16));
        let e1 = rng.gen_range(0..=n1 / 2);
        let e2 = rng.gen_range(0..=n2 / 2);
        let g1 = generate::random_connected(n1, e1, &weights, &mut rng);
        let g2 = generate::random_connected(n2, e2, &weights, &mut rng);
        pairs.push((g1, g2));
    }
    for n in 1..=8 {
        let g = generate::random_connected(n, 1, &weights, &mut rng);
        pairs.push((g.clone(), g));
    }
    pairs
}

/// A model of `config` trained briefly on seeded pairs, so no parameter
/// keeps its initial value.
fn trained_model(config: GediotConfig, seed: u64) -> Gediot {
    let mut rng = SmallRng::seed_from_u64(seed);
    let pairs = training_pairs(16, &mut rng);
    let mut model = Gediot::new(config, &mut rng);
    model.train(&pairs, 2, &mut rng);
    model
}

/// Folds every checkpointed parameter value's bits (`{:e}` round-trips
/// an `f64` exactly).
fn write_parameters(h: &mut Fnv1a, model: &Gediot) {
    for line in model.save_checkpoint().lines() {
        for token in line.split_whitespace().skip(1) {
            let x: f64 = token.parse().expect("checkpoint numbers parse");
            h.write_u64(x.to_bits());
        }
    }
}

/// Folds every prediction of every config's model over `pairs`.
fn predictions(pairs: &[(Graph, Graph)]) -> u64 {
    let mut h = Fnv1a::new();
    for (i, config) in configs().into_iter().enumerate() {
        let model = trained_model(config, 0x5EED_0000 + i as u64);
        for (g1, g2) in pairs {
            let p = model.predict(g1, g2);
            h.write_u64(p.ged.to_bits());
            h.write_u64(p.nged.to_bits());
            h.write_u64(u64::from(p.swapped));
            let (rows, cols) = p.coupling.shape();
            h.write_u64(rows as u64);
            h.write_u64(cols as u64);
            for x in p.coupling.as_slice() {
                h.write_u64(x.to_bits());
            }
        }
    }
    h.finish()
}

/// Folds the per-epoch losses and the final parameters of a short seeded
/// training run of the small config.
fn training() -> u64 {
    let mut rng = SmallRng::seed_from_u64(0x7EA1_2026);
    let pairs = training_pairs(40, &mut rng);
    let mut model = Gediot::new(configs().remove(0), &mut rng);
    let mut h = Fnv1a::new();
    for loss in model.train(&pairs, 4, &mut rng) {
        h.write_u64(loss.to_bits());
    }
    h.write_u64(model.evaluate_loss(&pairs).to_bits());
    write_parameters(&mut h, &model);
    h.finish()
}

#[test]
fn gediot_predictions_match_the_golden_digest() {
    let got = predictions(&pool());
    assert_eq!(
        got, PREDICT_GOLDEN,
        "GEDIOT prediction digest changed: got {got:#018x}, want {PREDICT_GOLDEN:#018x}"
    );
}

#[test]
fn gediot_training_matches_the_golden_digest() {
    let got = training();
    assert_eq!(
        got, TRAIN_GOLDEN,
        "GEDIOT training digest changed: got {got:#018x}, want {TRAIN_GOLDEN:#018x}"
    );
}
