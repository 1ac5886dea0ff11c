//! GEDIOT: the supervised inverse-optimal-transport GED model (Section 4).
//!
//! Architecture (Figure 4 of the paper):
//!
//! 1. **Node embedding component** — a siamese stack of GIN convolutions
//!    (Eq. 8) over one-hot label features; the outputs of *all* layers are
//!    concatenated (to fight over-smoothing) and reduced by an MLP
//!    `[D, 2D, D, d]` (Eq. 9) to final node embeddings `H1, H2`.
//! 2. **Learnable OT component** — a cost-matrix layer
//!    `Ĉ = tanh(H1 W H2ᵀ)` (Eq. 10) followed by a learnable Sinkhorn layer:
//!    the cost matrix is extended with a zero dummy row (Section 4.2), and
//!    the Sinkhorn iterations (Eq. 12) are unrolled onto the autodiff tape
//!    with a *learnable* regularization coefficient `ε` (kept positive via
//!    softplus). The resulting coupling `π̂` both supervises the matching
//!    loss and produces the transport score `w1 = ⟨Ĉ, π̂⟩`.
//! 3. **Graph discrepancy component** — attention pooling (Eq. 13) and an
//!    NTN (Eq. 14) reduce the pair to a score `w2` that accounts for the
//!    `n2 - n1` unmatched nodes.
//!
//! The prediction is `score = σ(w1 + w2)` fitting the normalized GED, and
//! the loss is `λ·MSE + (1-λ)·BCE` (Eq. 15).
//!
//! Ablation switches reproduce Table 6: GCN instead of GIN, no MLP, plain
//! inner-product cost layer, and frozen (non-learnable) `ε`.

use crate::kbest::{kbest_edit_path, KBestResult};
use crate::pairs::{ordered, GedPair};
use crate::workspace::GedWorkspace;
use ged_graph::{max_edit_ops, Graph};
use ged_linalg::Matrix;
use ged_nn::init::softplus_inverse;
use ged_nn::layers::{Activation, AttentionPool, GinLayer, Linear, Mlp, Ntn};
use ged_nn::loss::{bce_matrix, mse_scalar};
use ged_nn::params::{Bindings, ParamId, ParamStore};
use ged_nn::tape::{Tape, TapePool, Var};
use ged_nn::Adam;
use rand::seq::SliceRandom;
use rand::Rng;
use std::mem;

/// Graph convolution flavor (Table 6 ablation "w/ GCN").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConvKind {
    /// Graph Isomorphism Network (Eq. 8) — the paper's default.
    Gin,
    /// Symmetric-normalized GCN convolution `h' = ReLU(Â h W + b)`.
    Gcn,
}

/// Hyperparameters of GEDIOT.
#[derive(Clone, Debug)]
pub struct GediotConfig {
    /// Size of the label alphabet (one-hot input dimension; 1 = unlabeled).
    pub num_labels: usize,
    /// Output dimension of each graph-convolution layer (paper: 128/64/32;
    /// scaled down by default for CPU training).
    pub conv_dims: Vec<usize>,
    /// Final node-embedding dimension `d` (paper: 32).
    pub embed_dim: usize,
    /// NTN output dimension `L` (paper: 16).
    pub ntn_dim: usize,
    /// Unrolled Sinkhorn iterations (paper default: 5).
    pub sinkhorn_iters: usize,
    /// Initial regularization coefficient `ε0` (paper: 0.05).
    pub epsilon0: f64,
    /// Learn `ε` by gradient descent (Table 6 "w/o learnable ε" sets false).
    pub learnable_epsilon: bool,
    /// Loss balance `λ` between value loss and matching loss (paper: 0.8).
    pub lambda: f64,
    /// Keep the node-embedding MLP (Table 6 "w/o MLP" sets false).
    pub use_mlp: bool,
    /// Keep the learnable cost-matrix layer `tanh(H1 W H2ᵀ)`; when false the
    /// plain (parameter-free) `tanh(H1 H2ᵀ)` is used (Table 6 "w/o Cost").
    pub use_cost_layer: bool,
    /// Convolution flavor.
    pub conv: ConvKind,
    /// Adam learning rate (paper: 1e-3).
    pub learning_rate: f64,
    /// Adam weight decay (paper: 5e-4).
    pub weight_decay: f64,
    /// Minibatch size (paper: 128; scaled down by default).
    pub batch_size: usize,
}

impl GediotConfig {
    /// A CPU-friendly configuration preserving the paper's architecture
    /// shape at reduced width.
    #[must_use]
    pub fn small(num_labels: usize) -> Self {
        GediotConfig {
            num_labels: num_labels.max(1),
            conv_dims: vec![32, 16, 8],
            embed_dim: 8,
            ntn_dim: 8,
            sinkhorn_iters: 5,
            epsilon0: 0.05,
            learnable_epsilon: true,
            lambda: 0.8,
            use_mlp: true,
            use_cost_layer: true,
            conv: ConvKind::Gin,
            learning_rate: 1e-3,
            weight_decay: 5e-4,
            batch_size: 32,
        }
    }

    /// The paper's full-width configuration (GIN 128/64/32, d=32, L=16).
    #[must_use]
    pub fn paper(num_labels: usize) -> Self {
        GediotConfig {
            conv_dims: vec![128, 64, 32],
            embed_dim: 32,
            ntn_dim: 16,
            ..Self::small(num_labels)
        }
    }
}

/// A prediction for one graph pair.
#[derive(Clone, Debug)]
pub struct GediotPrediction {
    /// Denormalized GED estimate.
    pub ged: f64,
    /// Normalized score in `(0, 1)`.
    pub nged: f64,
    /// Node coupling matrix (`n1 x n2` in the ordered orientation).
    pub coupling: Matrix,
    /// Whether the inputs were swapped to enforce `n1 <= n2`.
    pub swapped: bool,
}

enum Conv {
    Gin(GinLayer),
    Gcn(Linear),
}

/// The GEDIOT model: owns all parameters and the optimizer state.
pub struct Gediot {
    config: GediotConfig,
    store: ParamStore,
    convs: Vec<Conv>,
    mlp: Option<Mlp>,
    cost_w: Option<ParamId>,
    eps_param: ParamId,
    pool: AttentionPool,
    ntn: Ntn,
    head: Mlp,
    adam: Adam,
}

impl Gediot {
    /// Builds a model with freshly initialized parameters.
    pub fn new<R: Rng>(config: GediotConfig, rng: &mut R) -> Self {
        let mut store = ParamStore::new();
        let mut convs = Vec::new();
        let mut in_dim = config.num_labels.max(1);
        for (i, &out) in config.conv_dims.iter().enumerate() {
            let conv = match config.conv {
                ConvKind::Gin => Conv::Gin(GinLayer::new(
                    &mut store,
                    &format!("gin{i}"),
                    in_dim,
                    out,
                    rng,
                )),
                ConvKind::Gcn => Conv::Gcn(Linear::new(
                    &mut store,
                    &format!("gcn{i}"),
                    in_dim,
                    out,
                    rng,
                )),
            };
            convs.push(conv);
            in_dim = out;
        }
        // Concatenation of the input features and every conv output.
        let feat_dim = if config.num_labels <= 1 {
            1
        } else {
            config.num_labels
        };
        let concat_dim = feat_dim + config.conv_dims.iter().sum::<usize>();
        let (mlp, d_out) = if config.use_mlp {
            let mlp = Mlp::new(
                &mut store,
                "embed_mlp",
                &[concat_dim, 2 * concat_dim, concat_dim, config.embed_dim],
                Activation::Relu,
                Activation::None,
                rng,
            );
            (Some(mlp), config.embed_dim)
        } else {
            (None, concat_dim)
        };
        let cost_w = config
            .use_cost_layer
            .then(|| store.register("cost_w", ged_nn::init::xavier_uniform(d_out, d_out, rng)));
        // ε is stored pre-softplus so that softplus(param) = ε stays > 0.
        let eps_param = store.register(
            "epsilon_raw",
            Matrix::from_vec(1, 1, vec![softplus_inverse(config.epsilon0)]),
        );
        let pool = AttentionPool::new(&mut store, "pool", d_out, rng);
        let ntn = Ntn::new(&mut store, "ntn", d_out, config.ntn_dim, rng);
        let head = Mlp::new(
            &mut store,
            "head",
            &[config.ntn_dim, 8, 4, 1],
            Activation::Relu,
            Activation::None,
            rng,
        );
        let adam = Adam::new(config.learning_rate, config.weight_decay);
        Gediot {
            config,
            store,
            convs,
            mlp,
            cost_w,
            eps_param,
            pool,
            ntn,
            head,
            adam,
        }
    }

    /// The model's hyperparameters.
    #[must_use]
    pub fn config(&self) -> &GediotConfig {
        &self.config
    }

    /// Total scalar parameter count.
    #[must_use]
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// The current (softplus-transformed) Sinkhorn ε.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        if !self.config.learnable_epsilon {
            return self.config.epsilon0;
        }
        let raw = self.store.value(self.eps_param).as_slice()[0];
        raw.max(0.0) + (-raw.abs()).exp().ln_1p()
    }

    /// The one-hot label features of `g` as a tape constant.
    fn one_hot_features(&self, tape: &Tape, g: &Graph) -> Var {
        let n = g.num_nodes();
        let k = self.config.num_labels;
        if k <= 1 {
            // Unlabeled graphs: constant feature (paper convention).
            return tape.filled(n, 1, 1.0);
        }
        tape.constant_with(n, k, |x| {
            for u in 0..n {
                let l = g.label(u as u32).0 as usize;
                assert!(l < k, "label {l} out of alphabet {k}");
                x[(u, l)] = 1.0;
            }
        })
    }

    fn normalized_adjacency(g: &Graph) -> Matrix {
        // GCN: Â = D^{-1/2} (A + I) D^{-1/2}.
        let n = g.num_nodes();
        let mut a = Matrix::from_vec(n, n, g.adjacency_matrix());
        for i in 0..n {
            a[(i, i)] = 1.0;
        }
        let deg: Vec<f64> = a.row_sums();
        Matrix::from_fn(n, n, |i, j| a[(i, j)] / (deg[i] * deg[j]).sqrt())
    }

    /// Embeds one graph into final node embeddings (`n x d_out`).
    fn embed(&self, tape: &Tape, binds: &Bindings, g: &Graph) -> Var {
        let x0 = self.one_hot_features(tape, g);
        let n = g.num_nodes();
        let adj = match self.config.conv {
            // The dense adjacency matrix of `Graph::adjacency_matrix`.
            ConvKind::Gin => tape.constant_with(n, n, |a| {
                for (u, v) in g.edges() {
                    a[(u as usize, v as usize)] = 1.0;
                    a[(v as usize, u as usize)] = 1.0;
                }
            }),
            ConvKind::Gcn => tape.constant(Self::normalized_adjacency(g)),
        };
        let mut h = x0;
        let mut concat = x0;
        for conv in &self.convs {
            h = match conv {
                Conv::Gin(gin) => gin.forward(tape, binds, adj, h),
                Conv::Gcn(lin) => {
                    let ah = tape.matmul(adj, h);
                    tape.relu(lin.forward(tape, binds, ah))
                }
            };
            concat = tape.concat_cols(concat, h);
        }
        match &self.mlp {
            Some(mlp) => mlp.forward(tape, binds, concat),
            None => concat,
        }
    }

    /// Builds the full forward pass for an ordered pair (`n1 <= n2`).
    /// Returns `(coupling π̂, cost matrix Ĉ, score)`.
    fn forward_pair(
        &self,
        tape: &Tape,
        binds: &Bindings,
        g1: &Graph,
        g2: &Graph,
    ) -> (Var, Var, Var) {
        let h1 = self.embed(tape, binds, g1);
        let h2 = self.embed(tape, binds, g2);

        // Cost matrix layer (Eq. 10).
        let h2t = tape.transpose(h2);
        let cost = match self.cost_w {
            Some(w) => {
                let hw = tape.matmul(h1, binds.var(w));
                let raw = tape.matmul(hw, h2t);
                tape.tanh(raw)
            }
            // Ablation "w/o Cost": parameter-free pairwise scores. tanh keeps
            // exp(-C/ε) bounded, matching the learnable variant's range.
            None => {
                let raw = tape.matmul(h1, h2t);
                tape.tanh(raw)
            }
        };

        // Learnable Sinkhorn layer (Section 4.2) with the dummy row.
        let n1 = g1.num_nodes();
        let n2 = g2.num_nodes();
        let eps = if self.config.learnable_epsilon {
            tape.softplus(binds.var(self.eps_param))
        } else {
            tape.scalar(self.config.epsilon0)
        };
        let extended = tape.append_zero_row(cost);
        let neg = tape.scale(extended, -1.0);
        let scaled_cost = tape.div_scalar_var(neg, eps);
        let kernel = tape.exp(scaled_cost);
        let kernel_t = tape.transpose(kernel);
        let mu = tape.constant_with(n1 + 1, 1, |mu| {
            mu.as_mut_slice().fill(1.0);
            mu[(n1, 0)] = (n2 - n1) as f64;
        });
        let nu = tape.filled(n2, 1, 1.0);
        let mut phi = tape.filled(n1 + 1, 1, 1.0);
        let mut psi = tape.filled(n2, 1, 1.0);
        for _ in 0..self.config.sinkhorn_iters.max(1) {
            let denom_psi = tape.matmul(kernel_t, phi);
            psi = tape.div(nu, denom_psi);
            let denom_phi = tape.matmul(kernel, psi);
            phi = tape.div(mu, denom_phi);
        }
        let psi_row = tape.transpose(psi);
        let col_scaled = tape.mul_broadcast_col(kernel, phi);
        let pi_full = tape.mul_broadcast_row(col_scaled, psi_row);
        let pi = tape.remove_last_row(pi_full);

        // Transport score w1 = ⟨Ĉ, π̂⟩.
        let w1 = tape.dot(cost, pi);

        // Graph discrepancy component: attention pooling + NTN + head.
        let hg1 = self.pool.forward(tape, binds, h1);
        let hg2 = self.pool.forward(tape, binds, h2);
        let s = self.ntn.forward(tape, binds, hg1, hg2);
        let w2 = self.head.forward(tape, binds, s);

        let sum = tape.add(w1, w2);
        let score = tape.sigmoid(sum);
        (pi, cost, score)
    }

    /// Loss of one supervised pair (Eq. 15).
    fn pair_loss(&self, tape: &Tape, binds: &Bindings, pair: &GedPair) -> Var {
        let (pi, _, score) = self.forward_pair(tape, binds, &pair.g1, &pair.g2);
        let nged = pair
            .normalized_ged()
            .expect("training pair needs ground-truth GED");
        let l_v = mse_scalar(tape, score, nged);
        let mapping = pair
            .mapping
            .as_ref()
            .expect("training pair needs ground-truth matching");
        let target = Matrix::from_vec(
            pair.g1.num_nodes(),
            pair.g2.num_nodes(),
            mapping.coupling_matrix(pair.g2.num_nodes()),
        );
        let l_m = bce_matrix(tape, pi, &target);
        let lv_scaled = tape.scale(l_v, self.config.lambda);
        let lm_scaled = tape.scale(l_m, 1.0 - self.config.lambda);
        tape.add(lv_scaled, lm_scaled)
    }

    /// Trains one epoch over `pairs` (shuffled); returns the mean loss.
    /// Every pair's tape draws its buffers from one pool, and the batch
    /// gradient is summed in place.
    pub fn train_epoch<R: Rng>(&mut self, pairs: &[GedPair], rng: &mut R) -> f64 {
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        order.shuffle(rng);
        let mut total_loss = 0.0;
        let mut pool = TapePool::new();
        let mut acc: Vec<Matrix> = Vec::new();
        for batch in order.chunks(self.config.batch_size.max(1)) {
            for (k, &i) in batch.iter().enumerate() {
                let tape = Tape::with_pool(mem::take(&mut pool));
                let binds = self.store.bind(&tape);
                let loss = self.pair_loss(&tape, &binds, &pairs[i]);
                total_loss += tape.scalar_value(loss);
                tape.backward(loss);
                if k == 0 {
                    self.store.gradients_into(&tape, &binds, &mut acc);
                } else {
                    self.store.add_gradients(&tape, &binds, &mut acc);
                }
                pool = tape.into_pool();
            }
            let scale = 1.0 / batch.len() as f64;
            for g in &mut acc {
                g.as_mut_slice().iter_mut().for_each(|x| *x *= scale);
            }
            self.adam.step(&mut self.store, &acc);
        }
        total_loss / pairs.len().max(1) as f64
    }

    /// Trains for `epochs` epochs; returns the per-epoch mean losses.
    pub fn train<R: Rng>(&mut self, pairs: &[GedPair], epochs: usize, rng: &mut R) -> Vec<f64> {
        (0..epochs).map(|_| self.train_epoch(pairs, rng)).collect()
    }

    /// Predicts the GED and coupling of a pair (order-insensitive).
    #[must_use]
    pub fn predict(&self, g1: &Graph, g2: &Graph) -> GediotPrediction {
        self.predict_in(g1, g2, &mut GedWorkspace::new())
    }

    /// [`Self::predict`] with the tape's buffers drawn from `ws`'s pool
    /// and handed back to it, so that after a warm-up over pairs of the
    /// largest size only the returned coupling is allocated.
    /// Bit-identical to [`Self::predict`] for any (possibly dirty)
    /// workspace, including one a model of another configuration used.
    #[must_use]
    pub fn predict_in(&self, g1: &Graph, g2: &Graph, ws: &mut GedWorkspace) -> GediotPrediction {
        let (a, b, swapped) = ordered(g1, g2);
        let tape = Tape::with_pool(mem::take(&mut ws.tape));
        let binds = self.store.bind(&tape);
        let (pi, _, score) = self.forward_pair(&tape, &binds, a, b);
        let nged = tape.scalar_value(score);
        let coupling = tape.value(pi);
        ws.tape = tape.into_pool();
        GediotPrediction {
            ged: nged * max_edit_ops(a, b) as f64,
            nged,
            coupling,
            swapped,
        }
    }

    /// Predicts and additionally generates a feasible edit path via k-best
    /// matching (Section 4.5). The path is in the ordered orientation.
    #[must_use]
    pub fn predict_with_path(
        &self,
        g1: &Graph,
        g2: &Graph,
        k: usize,
    ) -> (GediotPrediction, KBestResult) {
        let pred = self.predict(g1, g2);
        let (a, b, _) = ordered(g1, g2);
        let path = kbest_edit_path(a, b, &pred.coupling, k);
        (pred, path)
    }

    /// Serializes all trained parameters to a text checkpoint.
    #[must_use]
    pub fn save_checkpoint(&self) -> String {
        self.store.checkpoint().to_text()
    }

    /// Restores parameters from a checkpoint produced by
    /// [`Gediot::save_checkpoint`] on an identically-configured model.
    ///
    /// # Errors
    /// Fails when the checkpoint does not match this architecture.
    pub fn load_checkpoint(&mut self, text: &str) -> Result<(), String> {
        let ckpt = ged_nn::params::Checkpoint::from_text(text)?;
        self.store.restore(&ckpt)
    }

    /// Validation loss (no parameter update).
    #[must_use]
    pub fn evaluate_loss(&self, pairs: &[GedPair]) -> f64 {
        let mut total = 0.0;
        let mut pool = TapePool::new();
        for pair in pairs {
            let tape = Tape::with_pool(mem::take(&mut pool));
            let binds = self.store.bind(&tape);
            let loss = self.pair_loss(&tape, &binds, pair);
            total += tape.scalar_value(loss);
            pool = tape.into_pool();
        }
        total / pairs.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_graph::generate;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tiny_config(num_labels: usize) -> GediotConfig {
        GediotConfig {
            conv_dims: vec![8, 8],
            embed_dim: 4,
            ntn_dim: 4,
            batch_size: 8,
            learning_rate: 5e-3,
            ..GediotConfig::small(num_labels)
        }
    }

    fn make_pairs(count: usize, rng: &mut SmallRng) -> Vec<GedPair> {
        (0..count)
            .map(|i| {
                let g = generate::random_connected(5 + i % 3, 1, &[0.5, 0.5], rng);
                let p = generate::perturb_with_edits(&g, 1 + i % 4, 2, rng);
                GedPair::supervised(g, p.graph, p.applied as f64, p.mapping)
            })
            .collect()
    }

    #[test]
    fn forward_shapes_and_ranges() {
        let mut rng = SmallRng::seed_from_u64(41);
        let model = Gediot::new(tiny_config(2), &mut rng);
        let g1 = generate::random_connected(4, 1, &[0.5, 0.5], &mut rng);
        let g2 = generate::random_connected(6, 2, &[0.5, 0.5], &mut rng);
        let pred = model.predict(&g1, &g2);
        assert_eq!(pred.coupling.shape(), (4, 6));
        assert!(pred.nged > 0.0 && pred.nged < 1.0);
        assert!(pred.ged >= 0.0);
        // Coupling rows sum to ~1 (each G1 node transports unit mass; the
        // last ψ/φ update leaves rows exactly normalized).
        for s in pred.coupling.row_sums() {
            assert!((s - 1.0).abs() < 0.05, "row sum {s}");
        }
        // Columns receive at most ~1.
        for s in pred.coupling.col_sums() {
            assert!(s <= 1.05, "col sum {s}");
        }
    }

    #[test]
    fn prediction_is_symmetric_in_input_order() {
        let mut rng = SmallRng::seed_from_u64(42);
        let model = Gediot::new(tiny_config(2), &mut rng);
        let g1 = generate::random_connected(4, 1, &[0.5, 0.5], &mut rng);
        let g2 = generate::random_connected(6, 2, &[0.5, 0.5], &mut rng);
        let a = model.predict(&g1, &g2);
        let b = model.predict(&g2, &g1);
        assert!((a.ged - b.ged).abs() < 1e-12);
        assert!(!a.swapped && b.swapped);
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = SmallRng::seed_from_u64(43);
        let pairs = make_pairs(24, &mut rng);
        let mut model = Gediot::new(tiny_config(2), &mut rng);
        let initial = model.evaluate_loss(&pairs);
        let losses = model.train(&pairs, 8, &mut rng);
        let final_loss = model.evaluate_loss(&pairs);
        assert!(
            final_loss < initial,
            "loss did not improve: {initial} -> {final_loss} ({losses:?})"
        );
    }

    #[test]
    fn learnable_epsilon_moves_during_training() {
        let mut rng = SmallRng::seed_from_u64(44);
        let pairs = make_pairs(16, &mut rng);
        let mut model = Gediot::new(tiny_config(2), &mut rng);
        let eps0 = model.epsilon();
        assert!((eps0 - 0.05).abs() < 1e-9, "initial epsilon {eps0}");
        model.train(&pairs, 5, &mut rng);
        assert!(
            (model.epsilon() - eps0).abs() > 1e-6,
            "epsilon never updated"
        );
    }

    #[test]
    fn frozen_epsilon_stays_fixed() {
        let mut rng = SmallRng::seed_from_u64(45);
        let pairs = make_pairs(8, &mut rng);
        let mut cfg = tiny_config(2);
        cfg.learnable_epsilon = false;
        let mut model = Gediot::new(cfg, &mut rng);
        model.train(&pairs, 3, &mut rng);
        assert!((model.epsilon() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn ablation_variants_run() {
        let mut rng = SmallRng::seed_from_u64(46);
        let g1 = generate::random_connected(4, 1, &[0.5, 0.5], &mut rng);
        let g2 = generate::random_connected(5, 1, &[0.5, 0.5], &mut rng);
        for (gcn, mlp, cost) in [
            (true, true, true),
            (false, false, true),
            (false, true, false),
        ] {
            let mut cfg = tiny_config(2);
            cfg.conv = if gcn { ConvKind::Gcn } else { ConvKind::Gin };
            cfg.use_mlp = mlp;
            cfg.use_cost_layer = cost;
            let mut model = Gediot::new(cfg, &mut rng);
            let pairs = make_pairs(6, &mut rng);
            model.train(&pairs, 2, &mut rng);
            let pred = model.predict(&g1, &g2);
            assert!(pred.ged.is_finite());
        }
    }

    #[test]
    fn path_generation_is_feasible() {
        let mut rng = SmallRng::seed_from_u64(47);
        let model = Gediot::new(tiny_config(2), &mut rng);
        let g1 = generate::random_connected(4, 1, &[0.5, 0.5], &mut rng);
        let g2 = generate::random_connected(6, 1, &[0.5, 0.5], &mut rng);
        let (_, path) = model.predict_with_path(&g1, &g2, 10);
        let out = path.path.apply(&g1).unwrap();
        assert!(ged_graph::isomorphism::are_isomorphic(&out, &g2));
    }

    #[test]
    fn overfits_single_pair_matching() {
        // Supervising a single pair repeatedly should push the coupling
        // toward the ground-truth matching.
        let mut rng = SmallRng::seed_from_u64(48);
        let g = generate::random_connected(5, 1, &[0.5, 0.5], &mut rng);
        let p = generate::perturb_with_edits(&g, 2, 2, &mut rng);
        let mapping = p.mapping.clone();
        let pair = GedPair::supervised(g.clone(), p.graph.clone(), p.applied as f64, p.mapping);
        let mut cfg = tiny_config(2);
        cfg.lambda = 0.2; // emphasize the matching loss
        cfg.learning_rate = 2e-2;
        let mut model = Gediot::new(cfg, &mut rng);
        let pairs = vec![pair];
        model.train(&pairs, 150, &mut rng);
        let pred = model.predict(&g, &p.graph);
        // The ground-truth entries should now carry high confidence.
        let n2 = p.graph.num_nodes();
        let mut hits = 0;
        for (u, &v) in mapping.as_slice().iter().enumerate() {
            let row = pred.coupling.row(u);
            let best = (0..n2)
                .max_by(|&a, &b| row[a].partial_cmp(&row[b]).unwrap())
                .unwrap();
            if best == v as usize {
                hits += 1;
            }
        }
        assert!(
            hits * 2 >= mapping.len(),
            "only {hits}/{} rows match",
            mapping.len()
        );
    }

    #[test]
    fn parameter_count_is_reported() {
        let mut rng = SmallRng::seed_from_u64(49);
        let model = Gediot::new(tiny_config(3), &mut rng);
        assert!(model.num_parameters() > 100);
    }

    #[test]
    fn checkpoint_roundtrip_preserves_predictions() {
        let mut rng = SmallRng::seed_from_u64(50);
        let pairs = make_pairs(8, &mut rng);
        let mut model = Gediot::new(tiny_config(2), &mut rng);
        model.train(&pairs, 2, &mut rng);
        let g1 = generate::random_connected(4, 1, &[0.5, 0.5], &mut rng);
        let g2 = generate::random_connected(6, 1, &[0.5, 0.5], &mut rng);
        let before = model.predict(&g1, &g2).ged;
        let ckpt = model.save_checkpoint();

        let mut fresh = Gediot::new(tiny_config(2), &mut rng);
        fresh.load_checkpoint(&ckpt).unwrap();
        assert!((fresh.predict(&g1, &g2).ged - before).abs() < 1e-12);

        // Wrong architecture is rejected.
        let mut wrong = Gediot::new(tiny_config(3), &mut rng);
        assert!(wrong.load_checkpoint(&ckpt).is_err());
    }
}
