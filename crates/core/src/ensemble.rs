//! GEDHOT: the hybrid ensemble of GEDIOT and GEDGW (Section 5.2).
//!
//! Since GED is the *minimum* number of edit operations, the ensemble takes
//! the smaller of the two GED estimates, and for GEP generation it runs the
//! k-best matching framework on both coupling matrices and keeps the
//! shorter edit path.

use crate::gedgw::{Gedgw, GedgwOptions};
use crate::gediot::Gediot;
use crate::kbest::{kbest_edit_path, KBestResult};
use crate::pairs::ordered;
use crate::workspace::GedWorkspace;
use ged_graph::Graph;

/// Which member supplied the winning estimate (Figure 13's adoption-rate
/// statistics read this).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// The supervised GEDIOT model won.
    Gediot,
    /// The unsupervised GEDGW solver won.
    Gedgw,
}

/// A GEDHOT prediction.
#[derive(Clone, Debug)]
pub struct GedhotPrediction {
    /// The ensembled GED estimate (minimum of the two members).
    pub ged: f64,
    /// GEDIOT's estimate.
    pub gediot_ged: f64,
    /// GEDGW's estimate.
    pub gedgw_ged: f64,
    /// Which member the ensembled value came from.
    pub value_source: Source,
}

impl GedhotPrediction {
    /// The ensembled prediction from the two members' estimates.
    fn of_members(gediot_ged: f64, gedgw_ged: f64) -> Self {
        let (ged, value_source) = if gediot_ged <= gedgw_ged {
            (gediot_ged, Source::Gediot)
        } else {
            (gedgw_ged, Source::Gedgw)
        };
        GedhotPrediction {
            ged,
            gediot_ged,
            gedgw_ged,
            value_source,
        }
    }
}

/// The GEDHOT ensemble, borrowing a trained GEDIOT model.
pub struct Gedhot<'m> {
    model: &'m Gediot,
    gw_options: GedgwOptions,
}

impl<'m> Gedhot<'m> {
    /// Wraps a trained GEDIOT model with default GEDGW options.
    #[must_use]
    pub fn new(model: &'m Gediot) -> Self {
        Gedhot {
            model,
            gw_options: GedgwOptions::default(),
        }
    }

    /// Overrides the GEDGW solver options.
    #[must_use]
    pub fn with_gw_options(mut self, opts: GedgwOptions) -> Self {
        self.gw_options = opts;
        self
    }

    /// Predicts the GED of a pair (order-insensitive).
    #[must_use]
    pub fn predict(&self, g1: &Graph, g2: &Graph) -> GedhotPrediction {
        self.predict_in(g1, g2, &mut GedWorkspace::new())
    }

    /// [`Self::predict`] with both members' buffers drawn from `ws`.
    /// Bit-identical to [`Self::predict`] for any (possibly dirty)
    /// workspace.
    #[must_use]
    pub fn predict_in(&self, g1: &Graph, g2: &Graph, ws: &mut GedWorkspace) -> GedhotPrediction {
        let iot = self.model.predict_in(g1, g2, ws);
        let gw = Gedgw::new(g1, g2)
            .with_options(self.gw_options)
            .solve_in(ws);
        GedhotPrediction::of_members(iot.ged, gw.ged)
    }

    /// Predicts and generates an edit path: both members' couplings go
    /// through k-best matching and the shorter path wins. Returns the
    /// prediction, the winning path, and the path's source.
    #[must_use]
    pub fn predict_with_path(
        &self,
        g1: &Graph,
        g2: &Graph,
        k: usize,
    ) -> (GedhotPrediction, KBestResult, Source) {
        let iot = self.model.predict(g1, g2);
        let gw = Gedgw::new(g1, g2).with_options(self.gw_options).solve();
        let pred = GedhotPrediction::of_members(iot.ged, gw.ged);
        let (a, b, _) = ordered(g1, g2);
        let path_iot = kbest_edit_path(a, b, &iot.coupling, k);
        let path_gw = kbest_edit_path(a, b, &gw.coupling, k);
        if path_iot.ged <= path_gw.ged {
            (pred, path_iot, Source::Gediot)
        } else {
            (pred, path_gw, Source::Gedgw)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gediot::GediotConfig;
    use crate::pairs::GedPair;
    use ged_graph::generate;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn quick_model(rng: &mut SmallRng) -> Gediot {
        let cfg = GediotConfig {
            conv_dims: vec![8],
            embed_dim: 4,
            ntn_dim: 4,
            batch_size: 8,
            ..GediotConfig::small(2)
        };
        let mut model = Gediot::new(cfg, rng);
        let pairs: Vec<GedPair> = (0..12)
            .map(|i| {
                let g = generate::random_connected(5, 1, &[0.5, 0.5], rng);
                let p = generate::perturb_with_edits(&g, 1 + i % 3, 2, rng);
                GedPair::supervised(g, p.graph, p.applied as f64, p.mapping)
            })
            .collect();
        model.train(&pairs, 2, rng);
        model
    }

    #[test]
    fn ensemble_takes_the_minimum() {
        let mut rng = SmallRng::seed_from_u64(61);
        let model = quick_model(&mut rng);
        let ens = Gedhot::new(&model);
        for _ in 0..5 {
            let g1 = generate::random_connected(4, 1, &[0.5, 0.5], &mut rng);
            let g2 = generate::random_connected(6, 1, &[0.5, 0.5], &mut rng);
            let pred = ens.predict(&g1, &g2);
            assert!((pred.ged - pred.gediot_ged.min(pred.gedgw_ged)).abs() < 1e-12);
            match pred.value_source {
                Source::Gediot => assert!(pred.gediot_ged <= pred.gedgw_ged),
                Source::Gedgw => assert!(pred.gedgw_ged < pred.gediot_ged),
            }
        }
    }

    #[test]
    fn ensemble_path_no_worse_than_members() {
        let mut rng = SmallRng::seed_from_u64(62);
        let model = quick_model(&mut rng);
        let ens = Gedhot::new(&model);
        let g1 = generate::random_connected(5, 1, &[0.5, 0.5], &mut rng);
        let g2 = generate::random_connected(6, 1, &[0.5, 0.5], &mut rng);
        let (_, path, _) = ens.predict_with_path(&g1, &g2, 8);
        let (_, iot_path) = model.predict_with_path(&g1, &g2, 8);
        let (_, gw_path) = Gedgw::new(&g1, &g2).solve_with_path(8);
        assert!(path.ged <= iot_path.ged);
        assert!(path.ged <= gw_path.ged);
        // And the path is feasible.
        let out = path.path.apply(&g1).unwrap();
        assert!(ged_graph::isomorphism::are_isomorphic(&out, &g2));
    }

    /// Field-by-field `to_bits` equality of two predictions.
    fn assert_same_bits(got: &GedhotPrediction, want: &GedhotPrediction) {
        assert_eq!(got.ged.to_bits(), want.ged.to_bits());
        assert_eq!(got.gediot_ged.to_bits(), want.gediot_ged.to_bits());
        assert_eq!(got.gedgw_ged.to_bits(), want.gedgw_ged.to_bits());
        assert_eq!(got.value_source, want.value_source);
    }

    #[test]
    fn path_and_workspace_predictions_equal_predict_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(64);
        let model = quick_model(&mut rng);
        let ens = Gedhot::new(&model);
        // One workspace, dirty from the second pair on.
        let mut ws = GedWorkspace::new();
        for n in [3, 7, 5, 6] {
            let g1 = generate::random_connected(n, 1, &[0.5, 0.5], &mut rng);
            let g2 = generate::random_connected(5, 2, &[0.5, 0.5], &mut rng);
            let want = ens.predict(&g1, &g2);
            let (with_path, _, _) = ens.predict_with_path(&g1, &g2, 4);
            assert_same_bits(&with_path, &want);
            assert_same_bits(&ens.predict_in(&g1, &g2, &mut ws), &want);
        }
    }

    #[test]
    fn identical_graphs_give_near_zero_gw_side() {
        let mut rng = SmallRng::seed_from_u64(63);
        let model = quick_model(&mut rng);
        let ens = Gedhot::new(&model);
        let g = generate::random_connected(5, 1, &[0.5, 0.5], &mut rng);
        let pred = ens.predict(&g, &g);
        // GEDGW is exact on identical graphs, so the ensemble must be ~0.
        assert!(pred.ged < 0.5, "ged {}", pred.ged);
        assert_eq!(pred.value_source, Source::Gedgw);
    }
}
