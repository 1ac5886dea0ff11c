//! Neural layers used by GEDIOT and the neural baselines.
//!
//! All layers operate on row-major conventions: a batch of node features is
//! `n x d` (one row per node), graph embeddings are `1 x d` rows.

use crate::init::xavier_uniform;
use crate::params::{Bindings, ParamId, ParamStore};
use crate::tape::{Tape, Var};
use ged_linalg::Matrix;
use rand::Rng;

/// A dense affine layer `y = x W + b`.
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a `in_dim -> out_dim` layer in `store`.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Self {
        let w = store.register(&format!("{name}.w"), xavier_uniform(in_dim, out_dim, rng));
        let b = store.register(&format!("{name}.b"), Matrix::zeros(1, out_dim));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Applies the layer to `x` (`n x in_dim`).
    pub fn forward(&self, tape: &Tape, binds: &Bindings, x: Var) -> Var {
        let xw = tape.matmul(x, binds.var(self.w));
        tape.add_broadcast_row(xw, binds.var(self.b))
    }

    /// Input dimension.
    #[must_use]
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

/// Activation function selector for [`Mlp`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Identity (no activation).
    None,
}

fn activate(tape: &Tape, act: Activation, x: Var) -> Var {
    match act {
        Activation::Relu => tape.relu(x),
        Activation::Tanh => tape.tanh(x),
        Activation::Sigmoid => tape.sigmoid(x),
        Activation::None => x,
    }
}

/// A multi-layer perceptron with a hidden activation and an optional output
/// activation.
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_act: Activation,
    output_act: Activation,
}

impl Mlp {
    /// Builds an MLP through the given `dims` (e.g. `[D, 2D, D, d]` for the
    /// paper's node-embedding MLP of Eq. 9).
    ///
    /// # Panics
    /// Panics if fewer than two dims are given.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        dims: &[usize],
        hidden_act: Activation,
        output_act: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(dims.len() >= 2, "MLP needs at least input and output dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, &format!("{name}.{i}"), w[0], w[1], rng))
            .collect();
        Mlp {
            layers,
            hidden_act,
            output_act,
        }
    }

    /// Applies the MLP to `x` (`n x dims[0]`).
    pub fn forward(&self, tape: &Tape, binds: &Bindings, x: Var) -> Var {
        let last = self.layers.len() - 1;
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(tape, binds, h);
            h = activate(
                tape,
                if i == last {
                    self.output_act
                } else {
                    self.hidden_act
                },
                h,
            );
        }
        h
    }

    /// Output dimension.
    ///
    /// # Panics
    /// Never (construction guarantees at least one layer).
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.layers.last().unwrap().out_dim()
    }
}

/// One Graph Isomorphism Network convolution (Eq. 8 of the paper):
///
/// ```text
/// h' = MLP((1 + δ) h + Σ_{v ∈ N(u)} h_v)
/// ```
///
/// with a learnable scalar `δ` per layer. The neighbor sum is `A h` with the
/// adjacency matrix as a constant tape input.
pub struct GinLayer {
    mlp: Mlp,
    delta: ParamId,
}

impl GinLayer {
    /// Registers a GIN layer mapping `in_dim -> out_dim` node features.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Self {
        let mlp = Mlp::new(
            store,
            &format!("{name}.mlp"),
            &[in_dim, out_dim, out_dim],
            Activation::Relu,
            Activation::Relu,
            rng,
        );
        let delta = store.register(&format!("{name}.delta"), Matrix::zeros(1, 1));
        GinLayer { mlp, delta }
    }

    /// Applies the convolution. `adj` is the `n x n` adjacency (constant),
    /// `h` the `n x in_dim` node features.
    pub fn forward(&self, tape: &Tape, binds: &Bindings, adj: Var, h: Var) -> Var {
        let neigh = tape.matmul(adj, h);
        let one_plus_delta = tape.add_const(binds.var(self.delta), 1.0);
        let self_term = tape.mul_scalar_var(h, one_plus_delta);
        let agg = tape.add(self_term, neigh);
        self.mlp.forward(tape, binds, agg)
    }

    /// Output feature dimension.
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.mlp.out_dim()
    }
}

/// Attention-weighted graph pooling (Eq. 13 / SimGNN):
///
/// ```text
/// h_c = tanh(W1 · mean(H)),  a = σ(H h_c),  h_G = Σ_i a_i H_i
/// ```
///
/// Input `H` is `n x d`; output is the `1 x d` graph embedding.
pub struct AttentionPool {
    w1: ParamId,
    dim: usize,
}

impl AttentionPool {
    /// Registers the pooling layer for `dim`-dimensional node embeddings.
    pub fn new<R: Rng>(store: &mut ParamStore, name: &str, dim: usize, rng: &mut R) -> Self {
        let w1 = store.register(&format!("{name}.w1"), xavier_uniform(dim, dim, rng));
        AttentionPool { w1, dim }
    }

    /// Pools `h` (`n x d`) into a `1 x d` graph embedding.
    pub fn forward(&self, tape: &Tape, binds: &Bindings, h: Var) -> Var {
        let (n, _) = tape.shape(h);
        // mean row: (1/n) 1ᵀ H  -> 1 x d
        let ones = tape.filled(1, n, 1.0 / n as f64);
        let mean = tape.matmul(ones, h);
        let hc = tape.tanh(tape.matmul(mean, binds.var(self.w1))); // 1 x d
        let scores = tape.matmul(h, tape.transpose(hc)); // n x 1
        let a = tape.sigmoid(scores);
        tape.matmul(tape.transpose(a), h) // 1 x d
    }

    /// Embedding dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }
}

/// Neural tensor network (Eq. 14 / SimGNN):
///
/// ```text
/// s(G1,G2) = ReLU(h1 W2^[1:L] h2ᵀ + W3 [h1 ‖ h2]ᵀ + b)
/// ```
///
/// Inputs are `1 x d` graph embeddings; output is a `1 x L` interaction
/// vector.
pub struct Ntn {
    w2: Vec<ParamId>,
    w3: ParamId,
    b: ParamId,
    out_dim: usize,
}

impl Ntn {
    /// Registers an NTN with `L = out_dim` slices over `d`-dim embeddings.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        d: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Self {
        let w2 = (0..out_dim)
            .map(|l| store.register(&format!("{name}.w2.{l}"), xavier_uniform(d, d, rng)))
            .collect();
        let w3 = store.register(&format!("{name}.w3"), xavier_uniform(2 * d, out_dim, rng));
        let b = store.register(&format!("{name}.b"), Matrix::zeros(1, out_dim));
        Ntn { w2, w3, b, out_dim }
    }

    /// Computes the `1 x L` interaction vector of two `1 x d` embeddings.
    pub fn forward(&self, tape: &Tape, binds: &Bindings, h1: Var, h2: Var) -> Var {
        // Bilinear slices h1 W2_l h2ᵀ, concatenated into 1 x L.
        let h2t = tape.transpose(h2);
        let mut bilinear: Option<Var> = None;
        for &w2l in &self.w2 {
            let t = tape.matmul(tape.matmul(h1, binds.var(w2l)), h2t); // 1x1
            bilinear = Some(match bilinear {
                Some(acc) => tape.concat_cols(acc, t),
                None => t,
            });
        }
        let bilinear = bilinear.expect("NTN has at least one slice");
        let joint = tape.concat_cols(h1, h2); // 1 x 2d
        let affine = tape.matmul(joint, binds.var(self.w3)); // 1 x L
        let summed = tape.add(bilinear, affine);
        let biased = tape.add(summed, binds.var(self.b));
        tape.relu(biased)
    }

    /// Output dimension `L`.
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn setup() -> (ParamStore, SmallRng) {
        (ParamStore::new(), SmallRng::seed_from_u64(99))
    }

    #[test]
    fn linear_shapes_and_bias() {
        let (mut store, mut rng) = setup();
        let lin = Linear::new(&mut store, "l", 3, 5, &mut rng);
        // Force a recognizable bias.
        *store.value_mut(ParamId(1)) = Matrix::filled(1, 5, 2.0);
        let tape = Tape::new();
        let b = store.bind(&tape);
        let x = tape.constant(Matrix::zeros(4, 3));
        let y = lin.forward(&tape, &b, x);
        assert_eq!(tape.shape(y), (4, 5));
        // Zero input: output equals bias on every row.
        assert!(tape
            .value(y)
            .as_slice()
            .iter()
            .all(|&v| (v - 2.0).abs() < 1e-12));
    }

    #[test]
    fn mlp_forward_shapes() {
        let (mut store, mut rng) = setup();
        let mlp = Mlp::new(
            &mut store,
            "m",
            &[4, 8, 2],
            Activation::Relu,
            Activation::None,
            &mut rng,
        );
        let tape = Tape::new();
        let b = store.bind(&tape);
        let x = tape.constant(Matrix::filled(3, 4, 0.5));
        let y = mlp.forward(&tape, &b, x);
        assert_eq!(tape.shape(y), (3, 2));
        assert_eq!(mlp.out_dim(), 2);
    }

    #[test]
    fn gin_uses_neighbors() {
        let (mut store, mut rng) = setup();
        let gin = GinLayer::new(&mut store, "g", 2, 3, &mut rng);
        let tape = Tape::new();
        let b = store.bind(&tape);
        // Path graph 0-1-2 adjacency.
        let adj = tape.constant(Matrix::from_vec(
            3,
            3,
            vec![0., 1., 0., 1., 0., 1., 0., 1., 0.],
        ));
        let h = tape.constant(Matrix::from_vec(3, 2, vec![1., 0., 0., 1., 1., 1.]));
        let y = gin.forward(&tape, &b, adj, h);
        assert_eq!(tape.shape(y), (3, 3));
        // Nodes 0 and 2 have different neighborhoods (their own features
        // differ), so their embeddings should differ.
        let v = tape.value(y);
        assert!((0..3).any(|c| (v[(0, c)] - v[(2, c)]).abs() > 1e-9));
    }

    #[test]
    fn attention_pool_is_permutation_invariant() {
        let (mut store, mut rng) = setup();
        let pool = AttentionPool::new(&mut store, "p", 3, &mut rng);
        let tape = Tape::new();
        let b = store.bind(&tape);
        let h = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let swapped = Matrix::from_vec(2, 3, vec![4., 5., 6., 1., 2., 3.]);
        let e1 = pool.forward(&tape, &b, tape.constant(h));
        let e2 = pool.forward(&tape, &b, tape.constant(swapped));
        assert!(tape.value(e1).max_abs_diff(&tape.value(e2)) < 1e-12);
    }

    #[test]
    fn ntn_output_shape_and_grad_flow() {
        let (mut store, mut rng) = setup();
        let ntn = Ntn::new(&mut store, "ntn", 4, 6, &mut rng);
        let tape = Tape::new();
        let b = store.bind(&tape);
        let h1 = tape.leaf(Matrix::filled(1, 4, 0.3), true);
        let h2 = tape.constant(Matrix::filled(1, 4, -0.2));
        let s = ntn.forward(&tape, &b, h1, h2);
        assert_eq!(tape.shape(s), (1, 6));
        let loss = tape.sum(s);
        tape.backward(loss);
        // Some gradient must reach h1 (unless all ReLUs are dead, which
        // xavier init makes effectively impossible for 6 slices).
        assert!(tape.grad(h1).frobenius_norm() > 0.0);
    }

    #[test]
    fn training_a_linear_layer_fits_a_line() {
        // End-to-end sanity: fit y = 2x - 1 with a 1->1 Linear via Adam.
        let (mut store, mut rng) = setup();
        let lin = Linear::new(&mut store, "fit", 1, 1, &mut rng);
        let mut adam = crate::optim::Adam::new(0.05, 0.0);
        for _ in 0..400 {
            let tape = Tape::new();
            let b = store.bind(&tape);
            let xs = tape.constant(Matrix::from_vec(4, 1, vec![-1.0, 0.0, 1.0, 2.0]));
            let ys = tape.constant(Matrix::from_vec(4, 1, vec![-3.0, -1.0, 1.0, 3.0]));
            let pred = lin.forward(&tape, &b, xs);
            let diff = tape.sub(pred, ys);
            let sq = tape.mul(diff, diff);
            let loss = tape.mean(sq);
            tape.backward(loss);
            let grads = store.gradients(&tape, &b);
            adam.step(&mut store, &grads);
        }
        let w = store.value(ParamId(0)).as_slice()[0];
        let bias = store.value(ParamId(1)).as_slice()[0];
        assert!((w - 2.0).abs() < 0.05, "w = {w}");
        assert!((bias + 1.0).abs() < 0.05, "b = {bias}");
    }
}
