//! The reverse-mode autodiff tape.
//!
//! A [`Tape`] is a growing list of nodes; each node stores its operation,
//! operand indices and forward value. [`Tape::backward`] seeds the gradient
//! of a scalar (`1x1`) output and walks the tape in reverse, accumulating
//! gradients into every node that requires them.
//!
//! A tape may borrow leaf values for its lifetime `'p` ([`Tape::leaf_ref`]),
//! so binding a model's parameters copies nothing.
//!
//! Every value and gradient a tape computes is written into a buffer drawn
//! from a [`TapePool`]: [`Tape::with_pool`] hands a pool in and
//! [`Tape::into_pool`] takes it back with every buffer of the finished
//! tape. Node `i` draws the buffer node `i` of the previous tape used, so
//! a model that builds the same graph pair after pair stops allocating once
//! its buffers have grown to the largest pair. Each op writes through the
//! `_into` form of the [`Matrix`] op its allocating form delegates to, so
//! the values are bit-identical whatever state the pool is in.

use ged_linalg::Matrix;
use std::borrow::Cow;
use std::cell::RefCell;
use std::fmt;
use std::mem;

/// Handle to a value on the tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

#[derive(Clone, Copy, Debug)]
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

#[derive(Clone)]
struct Node<'p> {
    op: Op,
    value: Cow<'p, Matrix>,
    grad: Option<Matrix>,
    requires_grad: bool,
}

/// The buffers of a finished tape, ready for the next one. See the
/// [module docs](self).
#[derive(Clone, Default)]
pub struct TapePool {
    /// Value buffer of node `i` at index `i` (empty once drawn).
    values: Vec<Matrix>,
    /// Gradient buffer of node `i` at index `i` (empty once drawn).
    grads: Vec<Matrix>,
    /// Temporaries of the backward pass.
    scratch: [Matrix; 3],
    /// The emptied node list, kept for its capacity.
    nodes: Vec<Node<'static>>,
}

impl fmt::Debug for TapePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TapePool")
            .field("values", &self.values.len())
            .field("grads", &self.grads.len())
            .finish_non_exhaustive()
    }
}

impl TapePool {
    /// An empty pool; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Empties `nodes` and re-types it for another borrow lifetime. The
/// list is empty, and `collect` from a `Vec`'s own `into_iter` into a
/// type of the same layout reuses the allocation (std's in-place
/// iteration; the allocation tests would count a new one).
fn recycle<'a, 'b>(mut nodes: Vec<Node<'a>>) -> Vec<Node<'b>> {
    nodes.clear();
    nodes
        .into_iter()
        .map(|_| unreachable!("the list was cleared"))
        .collect()
}

/// Takes buffer `i` of `slots`, or a new empty one past its end.
fn draw(slots: &mut [Matrix], i: usize) -> Matrix {
    slots.get_mut(i).map(mem::take).unwrap_or_default()
}

/// Puts `buf` back as buffer `i` of `slots`, unless that slot still holds
/// a buffer nobody drew (then `buf` came from outside the pool).
fn restore(slots: &mut Vec<Matrix>, i: usize, buf: Matrix) {
    if slots.len() <= i {
        slots.resize_with(i + 1, Matrix::default);
    }
    if slots[i].is_empty() {
        slots[i] = buf;
    }
}

struct Inner<'p> {
    nodes: Vec<Node<'p>>,
    values: Vec<Matrix>,
    grads: Vec<Matrix>,
    scratch: [Matrix; 3],
}

/// A define-by-run computation graph.
pub struct Tape<'p> {
    inner: RefCell<Inner<'p>>,
}

impl Default for Tape<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'p> Tape<'p> {
    /// Creates an empty tape with an empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::with_pool(TapePool::default())
    }

    /// Creates an empty tape that draws its buffers from `pool`.
    #[must_use]
    pub fn with_pool(pool: TapePool) -> Self {
        Tape {
            inner: RefCell::new(Inner {
                nodes: recycle(pool.nodes),
                values: pool.values,
                grads: pool.grads,
                scratch: pool.scratch,
            }),
        }
    }

    /// Ends the tape and returns its buffers, those of every node's value
    /// and gradient included, for the next tape.
    #[must_use]
    pub fn into_pool(self) -> TapePool {
        let Inner {
            mut nodes,
            mut values,
            mut grads,
            scratch,
        } = self.inner.into_inner();
        for (i, node) in nodes.drain(..).enumerate() {
            if let Cow::Owned(v) = node.value {
                restore(&mut values, i, v);
            }
            if let Some(g) = node.grad {
                restore(&mut grads, i, g);
            }
        }
        TapePool {
            values,
            grads,
            scratch,
            nodes: recycle(nodes),
        }
    }

    fn push(&self, op: Op, value: Cow<'p, Matrix>, requires_grad: bool) -> Var {
        let mut inner = self.inner.borrow_mut();
        inner.nodes.push(Node {
            op,
            value,
            grad: None,
            requires_grad,
        });
        Var(inner.nodes.len() - 1)
    }

    /// Pushes a node whose value `f` writes into the next recycled buffer.
    fn push_with(
        &self,
        op: Op,
        requires_grad: bool,
        f: impl FnOnce(&[Node<'p>], &mut Matrix),
    ) -> Var {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let i = inner.nodes.len();
        let mut value = draw(&mut inner.values, i);
        f(&inner.nodes, &mut value);
        inner.nodes.push(Node {
            op,
            value: Cow::Owned(value),
            grad: None,
            requires_grad,
        });
        Var(i)
    }

    fn push_unary(&self, a: Var, op: Op, f: impl FnOnce(&Matrix, &mut Matrix)) -> Var {
        let rg = self.inner.borrow().nodes[a.0].requires_grad;
        self.push_with(op, rg, |nodes, out| f(&nodes[a.0].value, out))
    }

    fn push_binary(
        &self,
        a: Var,
        b: Var,
        op: Op,
        f: impl FnOnce(&Matrix, &Matrix, &mut Matrix),
    ) -> Var {
        let rg = {
            let nodes = &self.inner.borrow().nodes;
            nodes[a.0].requires_grad || nodes[b.0].requires_grad
        };
        self.push_with(op, rg, |nodes, out| {
            f(&nodes[a.0].value, &nodes[b.0].value, out);
        })
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

    /// Registers a `rows x cols` constant that `fill` writes into a
    /// recycled buffer, zeroed first. `fill` must not use the tape.
    pub fn constant_with(&self, rows: usize, cols: usize, fill: impl FnOnce(&mut Matrix)) -> Var {
        self.push_with(Op::Leaf, false, |_, out| {
            out.resize_zeroed(rows, cols);
            fill(out);
        })
    }

    /// Registers a `rows x cols` constant with every element `value`.
    pub fn filled(&self, rows: usize, cols: usize, value: f64) -> Var {
        self.push_with(Op::Leaf, false, |_, out| {
            out.resize_filled(rows, cols, value);
        })
    }

    /// Registers a `1x1` constant scalar.
    pub fn scalar(&self, value: f64) -> Var {
        self.filled(1, 1, value)
    }

    /// The current value of `v` (cloned).
    #[must_use]
    pub fn value(&self, v: Var) -> Matrix {
        Matrix::clone(&self.inner.borrow().nodes[v.0].value)
    }

    /// The scalar value of a `1x1` variable.
    ///
    /// # Panics
    /// Panics if `v` is not `1x1`.
    #[must_use]
    pub fn scalar_value(&self, v: Var) -> f64 {
        let inner = self.inner.borrow();
        let m = &inner.nodes[v.0].value;
        assert_eq!(m.shape(), (1, 1), "scalar_value needs a 1x1 value");
        m.as_slice()[0]
    }

    /// The shape of `v`.
    #[must_use]
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.inner.borrow().nodes[v.0].value.shape()
    }

    /// The accumulated gradient of `v` (zeros if it never received one).
    #[must_use]
    pub fn grad(&self, v: Var) -> Matrix {
        let mut out = Matrix::default();
        self.grad_into(v, &mut out);
        out
    }

    /// [`Self::grad`] into a caller-provided matrix (reshaped as needed).
    pub fn grad_into(&self, v: Var, out: &mut Matrix) {
        let inner = self.inner.borrow();
        let n = &inner.nodes[v.0];
        match &n.grad {
            Some(g) => out.copy_from(g),
            None => {
                let (r, c) = n.value.shape();
                out.resize_zeroed(r, c);
            }
        }
    }

    /// `acc += grad(v)`, bit-identical to `acc.add_scaled_assign(&self.grad(v), 1.0)`
    /// without materializing the gradient.
    ///
    /// # Panics
    /// Panics if `acc` and `v` differ in shape.
    pub fn add_grad_to(&self, v: Var, acc: &mut Matrix) {
        let inner = self.inner.borrow();
        let n = &inner.nodes[v.0];
        assert_eq!(acc.shape(), n.value.shape(), "gradient shape mismatch");
        match &n.grad {
            Some(g) => acc.add_scaled_assign(g, 1.0),
            // Adding the zero gradient still turns -0.0 into +0.0.
            None => acc.as_mut_slice().iter_mut().for_each(|x| *x += 0.0),
        }
    }

    // ----- ops -------------------------------------------------------

    /// Matrix product.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        self.push_binary(a, b, Op::MatMul(a.0, b.0), |x, y, out| {
            x.matmul_into(y, out);
        })
    }

    /// Transpose.
    pub fn transpose(&self, a: Var) -> Var {
        self.push_unary(a, Op::Transpose(a.0), Matrix::transpose_into)
    }

    /// Element-wise sum.
    pub fn add(&self, a: Var, b: Var) -> Var {
        self.push_binary(a, b, Op::Add(a.0, b.0), Matrix::add_into)
    }

    /// Element-wise difference.
    pub fn sub(&self, a: Var, b: Var) -> Var {
        self.push_binary(a, b, Op::Sub(a.0, b.0), Matrix::sub_into)
    }

    /// Hadamard product.
    pub fn mul(&self, a: Var, b: Var) -> Var {
        self.push_binary(a, b, Op::Mul(a.0, b.0), Matrix::hadamard_into)
    }

    /// Element-wise division.
    pub fn div(&self, a: Var, b: Var) -> Var {
        self.push_binary(a, b, Op::Div(a.0, b.0), |x, y, out| {
            x.zip_map_into(y, out, |p, q| p / q);
        })
    }

    /// Multiplication by a compile-time scalar.
    pub fn scale(&self, a: Var, s: f64) -> Var {
        self.push_unary(a, Op::Scale(a.0, s), |x, out| x.scale_into(s, out))
    }

    /// Addition of a compile-time scalar to every element.
    pub fn add_const(&self, a: Var, s: f64) -> Var {
        self.push_unary(a, Op::AddConst(a.0), |x, out| x.map_into(out, |v| v + s))
    }

    /// Element-wise `exp`.
    pub fn exp(&self, a: Var) -> Var {
        self.push_unary(a, Op::Exp(a.0), |x, out| x.map_into(out, f64::exp))
    }

    /// Element-wise natural log.
    pub fn ln(&self, a: Var) -> Var {
        self.push_unary(a, Op::Ln(a.0), |x, out| x.map_into(out, f64::ln))
    }

    /// Element-wise `tanh`.
    pub fn tanh(&self, a: Var) -> Var {
        self.push_unary(a, Op::Tanh(a.0), |x, out| x.map_into(out, f64::tanh))
    }

    /// Element-wise logistic sigmoid.
    pub fn sigmoid(&self, a: Var) -> Var {
        self.push_unary(a, Op::Sigmoid(a.0), |x, out| {
            x.map_into(out, |v| 1.0 / (1.0 + (-v).exp()));
        })
    }

    /// Element-wise ReLU.
    pub fn relu(&self, a: Var) -> Var {
        self.push_unary(a, Op::Relu(a.0), |x, out| x.map_into(out, |v| v.max(0.0)))
    }

    /// Element-wise softplus `ln(1 + e^x)` (used to keep the learnable
    /// Sinkhorn ε positive).
    pub fn softplus(&self, a: Var) -> Var {
        self.push_unary(a, Op::Softplus(a.0), |x, out| {
            // Numerically stable: max(x,0) + ln(1+exp(-|x|)).
            x.map_into(out, |v| v.max(0.0) + (-v.abs()).exp().ln_1p());
        })
    }

    /// Sum of all elements (`1x1` result).
    pub fn sum(&self, a: Var) -> Var {
        self.push_unary(a, Op::Sum(a.0), |x, out| out.resize_filled(1, 1, x.sum()))
    }

    /// Mean of all elements (`1x1` result).
    pub fn mean(&self, a: Var) -> Var {
        self.push_unary(a, Op::Mean(a.0), |x, out| {
            out.resize_filled(1, 1, x.sum() / x.len() as f64);
        })
    }

    /// Element-wise clamp into `[lo, hi]` (gradient passes through inside
    /// the interval, zero outside).
    pub fn clamp(&self, a: Var, lo: f64, hi: f64) -> Var {
        self.push_unary(a, Op::Clamp(a.0, lo, hi), |x, out| {
            x.map_into(out, |v| v.clamp(lo, hi));
        })
    }

    /// Horizontal concatenation `[a | b]`.
    pub fn concat_cols(&self, a: Var, b: Var) -> Var {
        self.push_binary(a, b, Op::ConcatCols(a.0, b.0), Matrix::hcat_into)
    }

    /// Appends a zero row (the dummy supernode row of Section 4.2).
    pub fn append_zero_row(&self, a: Var) -> Var {
        self.push_unary(a, Op::AppendZeroRow(a.0), Matrix::with_zero_row_into)
    }

    /// Removes the last row (drops the dummy supernode from the coupling).
    pub fn remove_last_row(&self, a: Var) -> Var {
        self.push_unary(a, Op::RemoveLastRow(a.0), Matrix::without_last_row_into)
    }

    /// `c_ij = a_ij * r_j` with `r` a `1 x cols` row vector.
    ///
    /// # Panics
    /// Panics if `r` is not `1 x a.cols`.
    pub fn mul_broadcast_row(&self, a: Var, r: Var) -> Var {
        self.push_binary(a, r, Op::MulBroadcastRow(a.0, r.0), |am, rm, out| {
            assert_eq!(rm.shape(), (1, am.cols()), "broadcast row shape");
            out.fill_from_fn(am.rows(), am.cols(), |i, j| am[(i, j)] * rm[(0, j)]);
        })
    }

    /// `c_ij = a_ij * col_i` with `col` a `rows x 1` column vector.
    ///
    /// # Panics
    /// Panics if `col` is not `a.rows x 1`.
    pub fn mul_broadcast_col(&self, a: Var, col: Var) -> Var {
        self.push_binary(a, col, Op::MulBroadcastCol(a.0, col.0), |am, cm, out| {
            assert_eq!(cm.shape(), (am.rows(), 1), "broadcast col shape");
            out.fill_from_fn(am.rows(), am.cols(), |i, j| am[(i, j)] * cm[(i, 0)]);
        })
    }

    /// `c_ij = a_ij + r_j` with `r` a `1 x cols` row vector (bias add).
    ///
    /// # Panics
    /// Panics if `r` is not `1 x a.cols`.
    pub fn add_broadcast_row(&self, a: Var, r: Var) -> Var {
        self.push_binary(a, r, Op::AddBroadcastRow(a.0, r.0), Matrix::add_row_into)
    }

    /// `c = a * s` with `s` a `1x1` tape value.
    ///
    /// # Panics
    /// Panics if `s` is not `1x1`.
    pub fn mul_scalar_var(&self, a: Var, s: Var) -> Var {
        self.push_binary(a, s, Op::MulScalarVar(a.0, s.0), |am, sv, out| {
            assert_eq!(sv.shape(), (1, 1), "scalar var must be 1x1");
            am.scale_into(sv.as_slice()[0], out);
        })
    }

    /// `c = a / s` with `s` a `1x1` tape value.
    ///
    /// # Panics
    /// Panics if `s` is not `1x1`.
    pub fn div_scalar_var(&self, a: Var, s: Var) -> Var {
        self.push_binary(a, s, Op::DivScalarVar(a.0, s.0), |am, sv, out| {
            assert_eq!(sv.shape(), (1, 1), "scalar var must be 1x1");
            am.scale_into(1.0 / sv.as_slice()[0], out);
        })
    }

    /// Frobenius inner product `⟨a, b⟩` as a `1x1` value.
    pub fn dot(&self, a: Var, b: Var) -> Var {
        let prod = self.mul(a, b);
        self.sum(prod)
    }

    // ----- backward --------------------------------------------------

    /// Runs reverse-mode accumulation from the scalar `loss`.
    ///
    /// Each operand's gradient contribution is computed into a recycled
    /// temporary, in the same order and with the same [`Matrix`] ops as
    /// the allocating forms would, and then copied into (first
    /// contribution) or added onto the operand's recycled gradient.
    ///
    /// # Panics
    /// Panics if `loss` is not `1x1`.
    pub fn backward(&self, loss: Var) {
        let mut inner = self.inner.borrow_mut();
        let Inner {
            nodes,
            grads,
            scratch,
            ..
        } = &mut *inner;
        assert_eq!(
            nodes[loss.0].value.shape(),
            (1, 1),
            "backward needs a scalar loss"
        );
        for (i, n) in nodes.iter_mut().enumerate() {
            if let Some(g) = n.grad.take() {
                restore(grads, i, g);
            }
        }
        let mut seed = draw(grads, loss.0);
        seed.resize_filled(1, 1, 1.0);
        nodes[loss.0].grad = Some(seed);

        let [t, s1, s2] = scratch;
        for idx in (0..nodes.len()).rev() {
            // Leaves have no operands to propagate into.
            if !nodes[idx].requires_grad || matches!(nodes[idx].op, Op::Leaf) {
                continue;
            }
            let Some(g) = nodes[idx].grad.take() else {
                continue;
            };
            match nodes[idx].op {
                Op::Leaf => unreachable!("leaves are skipped above"),
                Op::MatMul(a, b) => {
                    nodes[b].value.transpose_into(t);
                    g.matmul_into(t, s1);
                    accumulate(nodes, grads, a, s1);
                    nodes[a].value.transpose_into(t);
                    t.matmul_into(&g, s1);
                    accumulate(nodes, grads, b, s1);
                }
                Op::Transpose(a) => {
                    g.transpose_into(s1);
                    accumulate(nodes, grads, a, s1);
                }
                Op::Add(a, b) => {
                    accumulate(nodes, grads, a, &g);
                    accumulate(nodes, grads, b, &g);
                }
                Op::Sub(a, b) => {
                    accumulate(nodes, grads, a, &g);
                    g.scale_into(-1.0, s1);
                    accumulate(nodes, grads, b, s1);
                }
                Op::Mul(a, b) => {
                    g.hadamard_into(&nodes[b].value, s1);
                    g.hadamard_into(&nodes[a].value, s2);
                    accumulate(nodes, grads, a, s1);
                    accumulate(nodes, grads, b, s2);
                }
                Op::Div(a, b) => {
                    let bv = &nodes[b].value;
                    g.zip_map_into(bv, s1, |gi, bi| gi / bi);
                    // d/db (a/b) = -a/b² = -c/b
                    g.hadamard_into(&nodes[idx].value, t);
                    t.zip_map_into(bv, s2, |x, bi| -x / bi);
                    accumulate(nodes, grads, a, s1);
                    accumulate(nodes, grads, b, s2);
                }
                Op::Scale(a, s) => {
                    g.scale_into(s, s1);
                    accumulate(nodes, grads, a, s1);
                }
                Op::AddConst(a) => accumulate(nodes, grads, a, &g),
                Op::Exp(a) => {
                    g.hadamard_into(&nodes[idx].value, s1);
                    accumulate(nodes, grads, a, s1);
                }
                Op::Ln(a) => {
                    g.zip_map_into(&nodes[a].value, s1, |gi, ai| gi / ai);
                    accumulate(nodes, grads, a, s1);
                }
                Op::Tanh(a) => {
                    g.zip_map_into(&nodes[idx].value, s1, |gi, t| gi * (1.0 - t * t));
                    accumulate(nodes, grads, a, s1);
                }
                Op::Sigmoid(a) => {
                    g.zip_map_into(&nodes[idx].value, s1, |gi, s| gi * s * (1.0 - s));
                    accumulate(nodes, grads, a, s1);
                }
                Op::Relu(a) => {
                    g.zip_map_into(
                        &nodes[a].value,
                        s1,
                        |gi, ai| if ai > 0.0 { gi } else { 0.0 },
                    );
                    accumulate(nodes, grads, a, s1);
                }
                Op::Softplus(a) => {
                    g.zip_map_into(&nodes[a].value, s1, |gi, ai| gi / (1.0 + (-ai).exp()));
                    accumulate(nodes, grads, a, s1);
                }
                Op::Sum(a) => {
                    let (r, c) = nodes[a].value.shape();
                    s1.resize_filled(r, c, g.as_slice()[0]);
                    accumulate(nodes, grads, a, s1);
                }
                Op::Mean(a) => {
                    let (r, c) = nodes[a].value.shape();
                    let scale = g.as_slice()[0] / (r * c) as f64;
                    s1.resize_filled(r, c, scale);
                    accumulate(nodes, grads, a, s1);
                }
                Op::Clamp(a, lo, hi) => {
                    g.zip_map_into(&nodes[a].value, s1, |gi, ai| {
                        if ai >= lo && ai <= hi {
                            gi
                        } else {
                            0.0
                        }
                    });
                    accumulate(nodes, grads, a, s1);
                }
                Op::ConcatCols(a, b) => {
                    let ca = nodes[a].value.cols();
                    let (rows, cols) = g.shape();
                    s1.fill_from_fn(rows, ca, |i, j| g[(i, j)]);
                    s2.fill_from_fn(rows, cols - ca, |i, j| g[(i, j + ca)]);
                    accumulate(nodes, grads, a, s1);
                    accumulate(nodes, grads, b, s2);
                }
                Op::AppendZeroRow(a) => {
                    g.without_last_row_into(s1);
                    accumulate(nodes, grads, a, s1);
                }
                Op::RemoveLastRow(a) => {
                    g.with_zero_row_into(s1);
                    accumulate(nodes, grads, a, s1);
                }
                Op::MulBroadcastRow(a, r) => {
                    let rv = &nodes[r].value;
                    let av = &nodes[a].value;
                    s1.fill_from_fn(g.rows(), g.cols(), |i, j| g[(i, j)] * rv[(0, j)]);
                    s2.resize_zeroed(1, g.cols());
                    for i in 0..g.rows() {
                        for j in 0..g.cols() {
                            s2[(0, j)] += g[(i, j)] * av[(i, j)];
                        }
                    }
                    accumulate(nodes, grads, a, s1);
                    accumulate(nodes, grads, r, s2);
                }
                Op::MulBroadcastCol(a, c) => {
                    let cv = &nodes[c].value;
                    let av = &nodes[a].value;
                    s1.fill_from_fn(g.rows(), g.cols(), |i, j| g[(i, j)] * cv[(i, 0)]);
                    s2.resize_zeroed(g.rows(), 1);
                    for i in 0..g.rows() {
                        for j in 0..g.cols() {
                            s2[(i, 0)] += g[(i, j)] * av[(i, j)];
                        }
                    }
                    accumulate(nodes, grads, a, s1);
                    accumulate(nodes, grads, c, s2);
                }
                Op::AddBroadcastRow(a, r) => {
                    s2.resize_zeroed(1, g.cols());
                    for i in 0..g.rows() {
                        for j in 0..g.cols() {
                            s2[(0, j)] += g[(i, j)];
                        }
                    }
                    accumulate(nodes, grads, a, &g);
                    accumulate(nodes, grads, r, s2);
                }
                Op::MulScalarVar(a, s) => {
                    let sv = nodes[s].value.as_slice()[0];
                    g.scale_into(sv, s1);
                    accumulate(nodes, grads, a, s1);
                    g.hadamard_into(&nodes[a].value, t);
                    s2.resize_filled(1, 1, t.sum());
                    accumulate(nodes, grads, s, s2);
                }
                Op::DivScalarVar(a, s) => {
                    let sv = nodes[s].value.as_slice()[0];
                    g.scale_into(1.0 / sv, s1);
                    accumulate(nodes, grads, a, s1);
                    g.hadamard_into(&nodes[a].value, t);
                    s2.resize_filled(1, 1, -t.sum() / (sv * sv));
                    accumulate(nodes, grads, s, s2);
                }
            }
            nodes[idx].grad = Some(g);
        }
    }

    /// Number of nodes on the tape (diagnostics).
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.borrow().nodes.len()
    }

    /// Whether the tape is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().nodes.is_empty()
    }
}

/// Adds the contribution `g` to node `idx`'s gradient: the first one is
/// copied into a recycled buffer, later ones are added onto it.
fn accumulate(nodes: &mut [Node<'_>], grads: &mut [Matrix], idx: usize, g: &Matrix) {
    if !nodes[idx].requires_grad {
        return;
    }
    match &mut nodes[idx].grad {
        Some(existing) => existing.add_scaled_assign(g, 1.0),
        slot @ None => {
            let mut buf = draw(grads, idx);
            buf.copy_from(g);
            *slot = Some(buf);
        }
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

    /// Values and gradients of the unrolled Sinkhorn layer over inputs of
    /// several shapes, on a fresh tape (`None`) or on one drawing from
    /// `pool` and handing it back.
    fn sinkhorn_run(input: &Matrix, pool: Option<&mut TapePool>) -> (Vec<u64>, Vec<u64>) {
        let mut pool = pool;
        let tape = Tape::with_pool(pool.as_deref_mut().map(mem::take).unwrap_or_default());
        let (n1, n2) = input.shape();
        let c = tape.leaf(input.clone(), true);
        let ext = tape.append_zero_row(c);
        let eps = tape.softplus(tape.scalar(-2.5));
        let k = tape.exp(tape.div_scalar_var(tape.scale(ext, -1.0), eps));
        let mu = tape.constant_with(n1 + 1, 1, |m| {
            m.as_mut_slice().fill(1.0);
            m[(n1, 0)] = (n2 - n1) as f64;
        });
        let nu = tape.filled(n2, 1, 1.0);
        let mut phi = tape.filled(n1 + 1, 1, 1.0);
        let mut psi = tape.filled(n2, 1, 1.0);
        for _ in 0..3 {
            psi = tape.div(nu, tape.matmul(tape.transpose(k), phi));
            phi = tape.div(mu, tape.matmul(k, psi));
        }
        let pi = tape.mul_broadcast_row(tape.mul_broadcast_col(k, phi), tape.transpose(psi));
        let pi = tape.remove_last_row(pi);
        let h = tape.relu(tape.add_broadcast_row(c, tape.filled(1, n2, -0.2)));
        let h = tape.concat_cols(h, tape.sigmoid(tape.tanh(c)));
        let loss = tape.add(tape.dot(c, pi), tape.mean(tape.ln(tape.clamp(h, 0.1, 5.0))));
        tape.backward(loss);
        let bits = |m: Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let out = (bits(tape.value(pi)), bits(tape.grad(c)));
        if let Some(p) = pool {
            *p = tape.into_pool();
        }
        out
    }

    #[test]
    fn a_recycled_pool_gives_bit_identical_values_and_gradients() {
        let mut pool = TapePool::new();
        for (case, (n1, n2)) in [(3, 5), (2, 2), (4, 7), (1, 3), (3, 5)]
            .into_iter()
            .enumerate()
        {
            let input = rand_matrix(n1, n2, 20 + case as u64).map(f64::abs);
            let fresh = sinkhorn_run(&input, None);
            let pooled = sinkhorn_run(&input, Some(&mut pool));
            assert_eq!(pooled, fresh, "case {case}: {n1}x{n2}");
        }
    }

    #[test]
    fn into_pool_returns_every_owned_buffer() {
        let store = Matrix::filled(2, 2, 1.0);
        let t = Tape::new();
        let p = t.leaf_ref(&store, true);
        let y = t.sum(t.matmul(p, t.filled(2, 3, 0.5)));
        t.backward(y);
        let pool = t.into_pool();
        // Four nodes; the borrowed leaf's value is not the tape's to keep.
        assert_eq!(pool.values.iter().filter(|m| !m.is_empty()).count(), 3);
        assert_eq!(pool.grads.iter().filter(|m| !m.is_empty()).count(), 3);
        let t = Tape::with_pool(pool);
        let x = t.filled(2, 3, 2.0);
        assert_eq!(t.value(x), Matrix::filled(2, 3, 2.0));
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
