//! The reverse-mode autodiff tape.
//!
//! A [`Tape`] is a growing list of nodes; each node stores its operation,
//! operand indices and forward value. [`Tape::backward`] seeds the gradient
//! of a scalar (`1x1`) output and walks the tape in reverse, accumulating
//! gradients into every node that requires them.
//!
//! A tape may borrow leaf values for its lifetime `'p` ([`Tape::leaf_ref`]),
//! so binding a model's parameters copies nothing.

use ged_linalg::Matrix;
use std::borrow::Cow;
use std::cell::RefCell;

/// Handle to a value on the tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

#[derive(Clone, Debug)]
enum Op {
    /// Leaf value (input or parameter).
    Leaf,
    MatMul(usize, usize),
    Transpose(usize),
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Div(usize, usize),
    Scale(usize, f64),
    // The added constant does not appear in the backward pass (d/dx = 1).
    AddConst(usize),
    Exp(usize),
    Ln(usize),
    Tanh(usize),
    Sigmoid(usize),
    Relu(usize),
    Softplus(usize),
    Sum(usize),
    Mean(usize),
    Clamp(usize, f64, f64),
    ConcatCols(usize, usize),
    AppendZeroRow(usize),
    RemoveLastRow(usize),
    /// `c_ij = a_ij * r_j` where `r` is `1 x cols`.
    MulBroadcastRow(usize, usize),
    /// `c_ij = a_ij * col_i` where `col` is `rows x 1`.
    MulBroadcastCol(usize, usize),
    /// `c_ij = a_ij + r_j` where `r` is `1 x cols`.
    AddBroadcastRow(usize, usize),
    /// `c = a * s` where `s` is a `1x1` tape value.
    MulScalarVar(usize, usize),
    /// `c = a / s` where `s` is a `1x1` tape value.
    DivScalarVar(usize, usize),
}

struct Node<'p> {
    op: Op,
    value: Cow<'p, Matrix>,
    grad: Option<Matrix>,
    requires_grad: bool,
}

/// A define-by-run computation graph.
#[derive(Default)]
pub struct Tape<'p> {
    nodes: RefCell<Vec<Node<'p>>>,
}

impl<'p> Tape<'p> {
    /// Creates an empty tape.
    #[must_use]
    pub fn new() -> Self {
        Tape {
            nodes: RefCell::new(Vec::new()),
        }
    }

    fn push(&self, op: Op, value: Cow<'p, Matrix>, requires_grad: bool) -> Var {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node {
            op,
            value,
            grad: None,
            requires_grad,
        });
        Var(nodes.len() - 1)
    }

    fn push_unary(&self, a: Var, op: Op, value: Matrix) -> Var {
        let rg = self.nodes.borrow()[a.0].requires_grad;
        self.push(op, Cow::Owned(value), rg)
    }

    fn push_binary(&self, a: Var, b: Var, op: Op, value: Matrix) -> Var {
        let nodes = self.nodes.borrow();
        let rg = nodes[a.0].requires_grad || nodes[b.0].requires_grad;
        drop(nodes);
        self.push(op, Cow::Owned(value), rg)
    }

    /// Registers a leaf value. `requires_grad` marks parameters.
    pub fn leaf(&self, value: Matrix, requires_grad: bool) -> Var {
        self.push(Op::Leaf, Cow::Owned(value), requires_grad)
    }

    /// [`Self::leaf`] borrowing `value` for the tape's lifetime instead of
    /// owning a copy.
    pub fn leaf_ref(&self, value: &'p Matrix, requires_grad: bool) -> Var {
        self.push(Op::Leaf, Cow::Borrowed(value), requires_grad)
    }

    /// Registers a constant (no gradient).
    pub fn constant(&self, value: Matrix) -> Var {
        self.leaf(value, false)
    }

    /// Registers a `1x1` constant scalar.
    pub fn scalar(&self, value: f64) -> Var {
        self.constant(Matrix::from_vec(1, 1, vec![value]))
    }

    /// The current value of `v` (cloned).
    #[must_use]
    pub fn value(&self, v: Var) -> Matrix {
        Matrix::clone(&self.nodes.borrow()[v.0].value)
    }

    /// The scalar value of a `1x1` variable.
    ///
    /// # Panics
    /// Panics if `v` is not `1x1`.
    #[must_use]
    pub fn scalar_value(&self, v: Var) -> f64 {
        let nodes = self.nodes.borrow();
        let m = &nodes[v.0].value;
        assert_eq!(m.shape(), (1, 1), "scalar_value needs a 1x1 value");
        m.as_slice()[0]
    }

    /// The shape of `v`.
    #[must_use]
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes.borrow()[v.0].value.shape()
    }

    /// The accumulated gradient of `v` (zeros if it never received one).
    #[must_use]
    pub fn grad(&self, v: Var) -> Matrix {
        let nodes = self.nodes.borrow();
        let n = &nodes[v.0];
        n.grad.clone().unwrap_or_else(|| {
            let (r, c) = n.value.shape();
            Matrix::zeros(r, c)
        })
    }

    // ----- ops -------------------------------------------------------

    /// Matrix product.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            nodes[a.0].value.matmul(&nodes[b.0].value)
        };
        self.push_binary(a, b, Op::MatMul(a.0, b.0), v)
    }

    /// Transpose.
    pub fn transpose(&self, a: Var) -> Var {
        let v = self.nodes.borrow()[a.0].value.transpose();
        self.push_unary(a, Op::Transpose(a.0), v)
    }

    /// Element-wise sum.
    pub fn add(&self, a: Var, b: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            nodes[a.0].value.add(&nodes[b.0].value)
        };
        self.push_binary(a, b, Op::Add(a.0, b.0), v)
    }

    /// Element-wise difference.
    pub fn sub(&self, a: Var, b: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            nodes[a.0].value.sub(&nodes[b.0].value)
        };
        self.push_binary(a, b, Op::Sub(a.0, b.0), v)
    }

    /// Hadamard product.
    pub fn mul(&self, a: Var, b: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            nodes[a.0].value.hadamard(&nodes[b.0].value)
        };
        self.push_binary(a, b, Op::Mul(a.0, b.0), v)
    }

    /// Element-wise division.
    pub fn div(&self, a: Var, b: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            nodes[a.0].value.zip_map(&nodes[b.0].value, |x, y| x / y)
        };
        self.push_binary(a, b, Op::Div(a.0, b.0), v)
    }

    /// Multiplication by a compile-time scalar.
    pub fn scale(&self, a: Var, s: f64) -> Var {
        let v = self.nodes.borrow()[a.0].value.scale(s);
        self.push_unary(a, Op::Scale(a.0, s), v)
    }

    /// Addition of a compile-time scalar to every element.
    pub fn add_const(&self, a: Var, s: f64) -> Var {
        let v = self.nodes.borrow()[a.0].value.map(|x| x + s);
        self.push_unary(a, Op::AddConst(a.0), v)
    }

    /// Element-wise `exp`.
    pub fn exp(&self, a: Var) -> Var {
        let v = self.nodes.borrow()[a.0].value.map(f64::exp);
        self.push_unary(a, Op::Exp(a.0), v)
    }

    /// Element-wise natural log.
    pub fn ln(&self, a: Var) -> Var {
        let v = self.nodes.borrow()[a.0].value.map(f64::ln);
        self.push_unary(a, Op::Ln(a.0), v)
    }

    /// Element-wise `tanh`.
    pub fn tanh(&self, a: Var) -> Var {
        let v = self.nodes.borrow()[a.0].value.map(f64::tanh);
        self.push_unary(a, Op::Tanh(a.0), v)
    }

    /// Element-wise logistic sigmoid.
    pub fn sigmoid(&self, a: Var) -> Var {
        let v = self.nodes.borrow()[a.0]
            .value
            .map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push_unary(a, Op::Sigmoid(a.0), v)
    }

    /// Element-wise ReLU.
    pub fn relu(&self, a: Var) -> Var {
        let v = self.nodes.borrow()[a.0].value.map(|x| x.max(0.0));
        self.push_unary(a, Op::Relu(a.0), v)
    }

    /// Element-wise softplus `ln(1 + e^x)` (used to keep the learnable
    /// Sinkhorn ε positive).
    pub fn softplus(&self, a: Var) -> Var {
        let v = self.nodes.borrow()[a.0].value.map(|x| {
            // Numerically stable: max(x,0) + ln(1+exp(-|x|)).
            x.max(0.0) + (-x.abs()).exp().ln_1p()
        });
        self.push_unary(a, Op::Softplus(a.0), v)
    }

    /// Sum of all elements (`1x1` result).
    pub fn sum(&self, a: Var) -> Var {
        let v = Matrix::from_vec(1, 1, vec![self.nodes.borrow()[a.0].value.sum()]);
        self.push_unary(a, Op::Sum(a.0), v)
    }

    /// Mean of all elements (`1x1` result).
    pub fn mean(&self, a: Var) -> Var {
        let nodes = self.nodes.borrow();
        let m = &nodes[a.0].value;
        let v = Matrix::from_vec(1, 1, vec![m.sum() / m.len() as f64]);
        drop(nodes);
        self.push_unary(a, Op::Mean(a.0), v)
    }

    /// Element-wise clamp into `[lo, hi]` (gradient passes through inside
    /// the interval, zero outside).
    pub fn clamp(&self, a: Var, lo: f64, hi: f64) -> Var {
        let v = self.nodes.borrow()[a.0].value.map(|x| x.clamp(lo, hi));
        self.push_unary(a, Op::Clamp(a.0, lo, hi), v)
    }

    /// Horizontal concatenation `[a | b]`.
    pub fn concat_cols(&self, a: Var, b: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            nodes[a.0].value.hcat(&nodes[b.0].value)
        };
        self.push_binary(a, b, Op::ConcatCols(a.0, b.0), v)
    }

    /// Appends a zero row (the dummy supernode row of Section 4.2).
    pub fn append_zero_row(&self, a: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let cols = nodes[a.0].value.cols();
            nodes[a.0].value.with_appended_row(&vec![0.0; cols])
        };
        self.push_unary(a, Op::AppendZeroRow(a.0), v)
    }

    /// Removes the last row (drops the dummy supernode from the coupling).
    pub fn remove_last_row(&self, a: Var) -> Var {
        let v = self.nodes.borrow()[a.0].value.without_last_row();
        self.push_unary(a, Op::RemoveLastRow(a.0), v)
    }

    /// `c_ij = a_ij * r_j` with `r` a `1 x cols` row vector.
    ///
    /// # Panics
    /// Panics if `r` is not `1 x a.cols`.
    pub fn mul_broadcast_row(&self, a: Var, r: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let am = &nodes[a.0].value;
            let rm = &nodes[r.0].value;
            assert_eq!(rm.shape(), (1, am.cols()), "broadcast row shape");
            Matrix::from_fn(am.rows(), am.cols(), |i, j| am[(i, j)] * rm[(0, j)])
        };
        self.push_binary(a, r, Op::MulBroadcastRow(a.0, r.0), v)
    }

    /// `c_ij = a_ij * col_i` with `col` a `rows x 1` column vector.
    ///
    /// # Panics
    /// Panics if `col` is not `a.rows x 1`.
    pub fn mul_broadcast_col(&self, a: Var, col: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let am = &nodes[a.0].value;
            let cm = &nodes[col.0].value;
            assert_eq!(cm.shape(), (am.rows(), 1), "broadcast col shape");
            Matrix::from_fn(am.rows(), am.cols(), |i, j| am[(i, j)] * cm[(i, 0)])
        };
        self.push_binary(a, col, Op::MulBroadcastCol(a.0, col.0), v)
    }

    /// `c_ij = a_ij + r_j` with `r` a `1 x cols` row vector (bias add).
    ///
    /// # Panics
    /// Panics if `r` is not `1 x a.cols`.
    pub fn add_broadcast_row(&self, a: Var, r: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let am = &nodes[a.0].value;
            let rm = &nodes[r.0].value;
            assert_eq!(rm.shape(), (1, am.cols()), "broadcast row shape");
            Matrix::from_fn(am.rows(), am.cols(), |i, j| am[(i, j)] + rm[(0, j)])
        };
        self.push_binary(a, r, Op::AddBroadcastRow(a.0, r.0), v)
    }

    /// `c = a * s` with `s` a `1x1` tape value.
    ///
    /// # Panics
    /// Panics if `s` is not `1x1`.
    pub fn mul_scalar_var(&self, a: Var, s: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let sv = &nodes[s.0].value;
            assert_eq!(sv.shape(), (1, 1), "scalar var must be 1x1");
            nodes[a.0].value.scale(sv.as_slice()[0])
        };
        self.push_binary(a, s, Op::MulScalarVar(a.0, s.0), v)
    }

    /// `c = a / s` with `s` a `1x1` tape value.
    ///
    /// # Panics
    /// Panics if `s` is not `1x1`.
    pub fn div_scalar_var(&self, a: Var, s: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let sv = &nodes[s.0].value;
            assert_eq!(sv.shape(), (1, 1), "scalar var must be 1x1");
            nodes[a.0].value.scale(1.0 / sv.as_slice()[0])
        };
        self.push_binary(a, s, Op::DivScalarVar(a.0, s.0), v)
    }

    /// Frobenius inner product `⟨a, b⟩` as a `1x1` value.
    pub fn dot(&self, a: Var, b: Var) -> Var {
        let prod = self.mul(a, b);
        self.sum(prod)
    }

    // ----- backward --------------------------------------------------

    /// Runs reverse-mode accumulation from the scalar `loss`.
    ///
    /// # Panics
    /// Panics if `loss` is not `1x1`.
    pub fn backward(&self, loss: Var) {
        let mut nodes = self.nodes.borrow_mut();
        assert_eq!(
            nodes[loss.0].value.shape(),
            (1, 1),
            "backward needs a scalar loss"
        );
        for n in nodes.iter_mut() {
            n.grad = None;
        }
        nodes[loss.0].grad = Some(Matrix::from_vec(1, 1, vec![1.0]));

        for idx in (0..nodes.len()).rev() {
            // Leaves have no operands to propagate into.
            if !nodes[idx].requires_grad || matches!(nodes[idx].op, Op::Leaf) {
                continue;
            }
            let Some(g) = nodes[idx].grad.clone() else {
                continue;
            };
            let op = nodes[idx].op.clone();
            let out_val = nodes[idx].value.clone();
            match op {
                Op::Leaf => unreachable!("leaves are skipped above"),
                Op::MatMul(a, b) => {
                    let bv_t = nodes[b].value.transpose();
                    let ga = g.matmul(&bv_t);
                    accumulate(&mut nodes, a, ga);
                    let av_t = nodes[a].value.transpose();
                    let gb = av_t.matmul(&g);
                    accumulate(&mut nodes, b, gb);
                }
                Op::Transpose(a) => accumulate(&mut nodes, a, g.transpose()),
                Op::Add(a, b) => {
                    accumulate(&mut nodes, a, g.clone());
                    accumulate(&mut nodes, b, g);
                }
                Op::Sub(a, b) => {
                    accumulate(&mut nodes, a, g.clone());
                    accumulate(&mut nodes, b, g.scale(-1.0));
                }
                Op::Mul(a, b) => {
                    let ga = g.hadamard(&nodes[b].value);
                    let gb = g.hadamard(&nodes[a].value);
                    accumulate(&mut nodes, a, ga);
                    accumulate(&mut nodes, b, gb);
                }
                Op::Div(a, b) => {
                    let bv = nodes[b].value.clone();
                    let ga = g.zip_map(&bv, |gi, bi| gi / bi);
                    // d/db (a/b) = -a/b² = -c/b
                    let gb = g.hadamard(&out_val).zip_map(&bv, |x, bi| -x / bi);
                    accumulate(&mut nodes, a, ga);
                    accumulate(&mut nodes, b, gb);
                }
                Op::Scale(a, s) => accumulate(&mut nodes, a, g.scale(s)),
                Op::AddConst(a) => accumulate(&mut nodes, a, g),
                Op::Exp(a) => accumulate(&mut nodes, a, g.hadamard(&out_val)),
                Op::Ln(a) => {
                    let av = nodes[a].value.clone();
                    accumulate(&mut nodes, a, g.zip_map(&av, |gi, ai| gi / ai));
                }
                Op::Tanh(a) => {
                    let ga = g.zip_map(&out_val, |gi, t| gi * (1.0 - t * t));
                    accumulate(&mut nodes, a, ga);
                }
                Op::Sigmoid(a) => {
                    let ga = g.zip_map(&out_val, |gi, s| gi * s * (1.0 - s));
                    accumulate(&mut nodes, a, ga);
                }
                Op::Relu(a) => {
                    let av = nodes[a].value.clone();
                    accumulate(
                        &mut nodes,
                        a,
                        g.zip_map(&av, |gi, ai| if ai > 0.0 { gi } else { 0.0 }),
                    );
                }
                Op::Softplus(a) => {
                    let av = nodes[a].value.clone();
                    let ga = g.zip_map(&av, |gi, ai| gi / (1.0 + (-ai).exp()));
                    accumulate(&mut nodes, a, ga);
                }
                Op::Sum(a) => {
                    let (r, c) = nodes[a].value.shape();
                    accumulate(&mut nodes, a, Matrix::filled(r, c, g.as_slice()[0]));
                }
                Op::Mean(a) => {
                    let (r, c) = nodes[a].value.shape();
                    let scale = g.as_slice()[0] / (r * c) as f64;
                    accumulate(&mut nodes, a, Matrix::filled(r, c, scale));
                }
                Op::Clamp(a, lo, hi) => {
                    let av = nodes[a].value.clone();
                    let ga = g.zip_map(&av, |gi, ai| if ai >= lo && ai <= hi { gi } else { 0.0 });
                    accumulate(&mut nodes, a, ga);
                }
                Op::ConcatCols(a, b) => {
                    let ca = nodes[a].value.cols();
                    let (rows, cols) = g.shape();
                    let ga = Matrix::from_fn(rows, ca, |i, j| g[(i, j)]);
                    let gb = Matrix::from_fn(rows, cols - ca, |i, j| g[(i, j + ca)]);
                    accumulate(&mut nodes, a, ga);
                    accumulate(&mut nodes, b, gb);
                }
                Op::AppendZeroRow(a) => accumulate(&mut nodes, a, g.without_last_row()),
                Op::RemoveLastRow(a) => {
                    let cols = g.cols();
                    accumulate(&mut nodes, a, g.with_appended_row(&vec![0.0; cols]));
                }
                Op::MulBroadcastRow(a, r) => {
                    let rv = nodes[r.to_owned()].value.clone();
                    let av = nodes[a].value.clone();
                    let ga = Matrix::from_fn(g.rows(), g.cols(), |i, j| g[(i, j)] * rv[(0, j)]);
                    let mut gr = Matrix::zeros(1, g.cols());
                    for i in 0..g.rows() {
                        for j in 0..g.cols() {
                            gr[(0, j)] += g[(i, j)] * av[(i, j)];
                        }
                    }
                    accumulate(&mut nodes, a, ga);
                    accumulate(&mut nodes, r, gr);
                }
                Op::MulBroadcastCol(a, c) => {
                    let cv = nodes[c].value.clone();
                    let av = nodes[a].value.clone();
                    let ga = Matrix::from_fn(g.rows(), g.cols(), |i, j| g[(i, j)] * cv[(i, 0)]);
                    let mut gc = Matrix::zeros(g.rows(), 1);
                    for i in 0..g.rows() {
                        for j in 0..g.cols() {
                            gc[(i, 0)] += g[(i, j)] * av[(i, j)];
                        }
                    }
                    accumulate(&mut nodes, a, ga);
                    accumulate(&mut nodes, c, gc);
                }
                Op::AddBroadcastRow(a, r) => {
                    let mut gr = Matrix::zeros(1, g.cols());
                    for i in 0..g.rows() {
                        for j in 0..g.cols() {
                            gr[(0, j)] += g[(i, j)];
                        }
                    }
                    accumulate(&mut nodes, a, g);
                    accumulate(&mut nodes, r, gr);
                }
                Op::MulScalarVar(a, s) => {
                    let sv = nodes[s].value.as_slice()[0];
                    let av = nodes[a].value.clone();
                    accumulate(&mut nodes, a, g.scale(sv));
                    let gs = g.hadamard(&av).sum();
                    accumulate(&mut nodes, s, Matrix::from_vec(1, 1, vec![gs]));
                }
                Op::DivScalarVar(a, s) => {
                    let sv = nodes[s].value.as_slice()[0];
                    let av = nodes[a].value.clone();
                    accumulate(&mut nodes, a, g.scale(1.0 / sv));
                    let gs = -g.hadamard(&av).sum() / (sv * sv);
                    accumulate(&mut nodes, s, Matrix::from_vec(1, 1, vec![gs]));
                }
            }
        }
    }

    /// Number of nodes on the tape (diagnostics).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// Whether the tape is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }
}

fn accumulate(nodes: &mut [Node<'_>], idx: usize, g: Matrix) {
    if !nodes[idx].requires_grad {
        return;
    }
    match &mut nodes[idx].grad {
        Some(existing) => existing.add_scaled_assign(&g, 1.0),
        slot @ None => *slot = Some(g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Central finite-difference check of `d loss / d input` for a scalar
    /// function `f` rebuilt from scratch at each evaluation.
    fn check_gradient(input: &Matrix, f: impl Fn(&Tape, Var) -> Var, tol: f64) {
        // Analytic gradient.
        let tape = Tape::new();
        let x = tape.leaf(input.clone(), true);
        let loss = f(&tape, x);
        tape.backward(loss);
        let analytic = tape.grad(x);

        // Finite differences.
        let h = 1e-5;
        for r in 0..input.rows() {
            for c in 0..input.cols() {
                let mut plus = input.clone();
                plus[(r, c)] += h;
                let tp = Tape::new();
                let xp = tp.leaf(plus, false);
                let lp = tp.scalar_value(f(&tp, xp));

                let mut minus = input.clone();
                minus[(r, c)] -= h;
                let tm = Tape::new();
                let xm = tm.leaf(minus, false);
                let lm = tm.scalar_value(f(&tm, xm));

                let fd = (lp - lm) / (2.0 * h);
                let an = analytic[(r, c)];
                assert!(
                    (fd - an).abs() < tol * (1.0 + fd.abs()),
                    "grad mismatch at ({r},{c}): fd={fd} analytic={an}"
                );
            }
        }
    }

    fn rand_matrix(r: usize, c: usize, seed: u64) -> Matrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        Matrix::from_fn(r, c, |_, _| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn grad_matmul() {
        let x = rand_matrix(3, 4, 1);
        check_gradient(
            &x,
            |t, x| {
                let w = t.constant(rand_matrix(4, 2, 2));
                let y = t.matmul(x, w);
                t.sum(y)
            },
            1e-5,
        );
    }

    #[test]
    fn grad_matmul_left_and_right() {
        let x = rand_matrix(2, 3, 3);
        check_gradient(
            &x,
            |t, x| {
                let xt = t.transpose(x); // 3x2
                let y = t.matmul(x, xt); // 2x2, both operands depend on x
                t.sum(y)
            },
            1e-4,
        );
    }

    #[test]
    fn grad_elementwise_chain() {
        let x = rand_matrix(3, 3, 4);
        check_gradient(
            &x,
            |t, x| {
                let a = t.tanh(x);
                let b = t.sigmoid(a);
                let c = t.exp(b);
                let d = t.mul(c, a);
                t.sum(d)
            },
            1e-4,
        );
    }

    #[test]
    fn grad_div_ln() {
        let x = rand_matrix(2, 3, 5).map(|v| v.abs() + 0.5);
        check_gradient(
            &x,
            |t, x| {
                let c = t.constant(Matrix::filled(2, 3, 2.0));
                let d = t.div(c, x);
                let l = t.ln(d);
                t.sum(l)
            },
            1e-4,
        );
    }

    #[test]
    fn grad_relu_softplus_clamp() {
        let x = rand_matrix(3, 3, 6);
        check_gradient(
            &x,
            |t, x| {
                let a = t.relu(x);
                let b = t.softplus(a);
                let c = t.clamp(b, 0.1, 5.0);
                t.mean(c)
            },
            1e-4,
        );
    }

    #[test]
    fn grad_broadcast_ops() {
        let x = rand_matrix(1, 4, 7);
        check_gradient(
            &x,
            |t, x| {
                let a = t.constant(rand_matrix(3, 4, 8));
                let m = t.mul_broadcast_row(a, x);
                let b = t.add_broadcast_row(m, x);
                t.sum(b)
            },
            1e-5,
        );
        let c = rand_matrix(3, 1, 9);
        check_gradient(
            &c,
            |t, c| {
                let a = t.constant(rand_matrix(3, 4, 10));
                let m = t.mul_broadcast_col(a, c);
                t.sum(m)
            },
            1e-5,
        );
    }

    #[test]
    fn grad_scalar_var_ops() {
        let s = Matrix::from_vec(1, 1, vec![0.7]);
        check_gradient(
            &s,
            |t, s| {
                let a = t.constant(rand_matrix(3, 3, 11));
                let d = t.div_scalar_var(a, s);
                let m = t.mul_scalar_var(d, s);
                let e = t.div_scalar_var(a, s);
                let f = t.add(m, e);
                t.sum(f)
            },
            1e-4,
        );
    }

    #[test]
    fn grad_concat_append_remove() {
        let x = rand_matrix(2, 3, 12);
        check_gradient(
            &x,
            |t, x| {
                let y = t.concat_cols(x, x);
                let z = t.append_zero_row(y);
                let w = t.remove_last_row(z);
                let v = t.mul(w, w);
                t.sum(v)
            },
            1e-5,
        );
    }

    #[test]
    fn grad_unrolled_sinkhorn() {
        // The critical test: gradients must flow through a full unrolled
        // Sinkhorn iteration with the dummy row (GEDIOT's OT layer).
        let c = rand_matrix(3, 5, 13).map(|v| v.abs());
        check_gradient(
            &c,
            |t, c| {
                let n1 = 3;
                let n2 = 5;
                let ext = t.append_zero_row(c);
                let eps = t.scalar(0.3);
                let neg = t.scale(ext, -1.0);
                let k = t.exp(t.div_scalar_var(neg, eps));
                let mut mu = vec![1.0; n1 + 1];
                mu[n1] = (n2 - n1) as f64;
                let mu = t.constant(Matrix::col_vec(mu));
                let nu = t.constant(Matrix::col_vec(vec![1.0; n2]));
                let mut phi = t.constant(Matrix::col_vec(vec![1.0; n1 + 1]));
                let mut psi = t.constant(Matrix::col_vec(vec![1.0; n2]));
                for _ in 0..4 {
                    let kt = t.transpose(k);
                    let ktphi = t.matmul(kt, phi);
                    psi = t.div(nu, ktphi);
                    let kpsi = t.matmul(k, psi);
                    phi = t.div(mu, kpsi);
                }
                let scaled = t.mul_broadcast_col(k, phi);
                let psi_row = t.transpose(psi);
                let pi_full = t.mul_broadcast_row(scaled, psi_row);
                let pi = t.remove_last_row(pi_full);
                t.dot(c, pi)
            },
            2e-3,
        );
    }

    #[test]
    fn no_grad_leaves_are_skipped() {
        let t = Tape::new();
        let x = t.constant(Matrix::filled(2, 2, 3.0));
        let y = t.sum(x);
        t.backward(y);
        assert_eq!(t.grad(x).as_slice(), &[0.0; 4]);
    }

    #[test]
    fn grad_accumulates_over_reuse() {
        let t = Tape::new();
        let x = t.leaf(Matrix::from_vec(1, 1, vec![2.0]), true);
        let y = t.mul(x, x); // x²
        let z = t.add(y, x); // x² + x
        t.backward(z);
        // d/dx = 2x + 1 = 5
        assert!((t.grad(x).as_slice()[0] - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_requires_scalar() {
        let t = Tape::new();
        let x = t.leaf(Matrix::zeros(2, 2), true);
        t.backward(x);
    }
}
