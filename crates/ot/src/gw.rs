//! Gromov–Wasserstein machinery.
//!
//! For intra-graph cost matrices `C1` (`n x n`) and `C2` (`m x m`) and a
//! coupling `π` (`n x m`), the 4th-order tensor
//! `L(C1,C2)_{i,j,k,l} = (C1_{i,j} - C2_{k,l})²` acts on `π` as
//!
//! ```text
//! (L ⊗ π)_{i,k} = Σ_{j,l} (C1_{i,j} - C2_{k,l})² π_{j,l}
//! ```
//!
//! Expanding the square decomposes this into three matrix products
//! (Peyré, Cuturi & Solomon, ICML 2016 — Proposition 1):
//!
//! ```text
//! L ⊗ π = (C1∘C1) r 1ᵀ + 1 cᵀ (C2∘C2)ᵀ − 2 C1 π C2ᵀ
//! ```
//!
//! with `r = π 1` (row sums) and `c = πᵀ 1` (column sums), which drops the
//! cost from `O(n⁴)` to `O(n³)` — the optimization Appendix E.2 of the paper
//! relies on.
//!
//! `C1` and `C2` are adjacency matrices, so every product above runs over
//! their nonzeros only, collected once per conditional-gradient solve:
//! `O(n²·d̄)` for 0/1 graphs of mean degree `d̄`. Each sum visits the
//! nonzero terms in the order the dense sum would, and the dense sum's
//! sign of zero is reproduced, so the result is bit-identical to the
//! dense evaluation for any finite `π` — including line-search directions
//! with negative entries.

use crate::workspace::{reset, GwScratch};
use ged_linalg::Matrix;

/// The entries of a square matrix that are not `+0.0`, row by row
/// (compressed sparse rows, columns ascending).
#[derive(Clone, Debug, Default)]
pub(crate) struct Nonzeros {
    /// Row `i`'s entries are `cols/vals[start[i]..start[i + 1]]`.
    start: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl Nonzeros {
    /// Collects the entries of `a` whose bits are not `+0.0`. A stored
    /// `-0.0` keeps every product's sign of zero exact; a skipped `+0.0`
    /// contributes a term `±0.0` that [`sparse_sum`] accounts for.
    fn rebuild(&mut self, a: &Matrix) {
        self.start.clear();
        self.cols.clear();
        self.vals.clear();
        self.start.push(0);
        for i in 0..a.rows() {
            for (j, &x) in a.row(i).iter().enumerate() {
                if x.to_bits() != 0 {
                    self.cols.push(j);
                    self.vals.push(x);
                }
            }
            self.start.push(self.cols.len());
        }
    }

    /// Number of rows.
    fn len(&self) -> usize {
        self.start.len().saturating_sub(1)
    }

    /// Row `i`'s column indices and values.
    fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let span = self.start[i]..self.start[i + 1];
        (&self.cols[span.clone()], &self.vals[span])
    }
}

/// `Σ_j term(a_j, x_j)` over one row of a matrix whose stored entries are
/// `(cols, vals)` and whose other entries are `+0.0`, bit-identical to the
/// dense `Iterator::sum` over every column when `term(+0.0, x)` is a zero
/// carrying the sign of `x` (true of `a·a·x` and `x·a`).
///
/// Adding a signed zero never changes a nonzero sum, so the two sums can
/// differ only when every stored term is `-0.0`: the dense sum then turns
/// `+0.0` as soon as one skipped `x_j` has a clear sign bit.
fn sparse_sum((cols, vals): (&[usize], &[f64]), x: &[f64], term: impl Fn(f64, f64) -> f64) -> f64 {
    let s: f64 = cols.iter().zip(vals).map(|(&j, &a)| term(a, x[j])).sum();
    if s.to_bits() != (-0.0f64).to_bits() {
        return s;
    }
    let stored = cols.iter().filter(|&&j| x[j].is_sign_positive()).count();
    if x.iter().filter(|v| v.is_sign_positive()).count() > stored {
        0.0
    } else {
        s
    }
}

impl GwScratch {
    /// Collects the nonzeros of `C1` and `C2` for the following
    /// [`gw_tensor_apply_into`] calls.
    ///
    /// # Panics
    /// Panics if `c1` or `c2` is not square.
    pub(crate) fn load(&mut self, c1: &Matrix, c2: &Matrix) {
        assert_eq!(c1.rows(), c1.cols(), "c1 must be square");
        assert_eq!(c2.rows(), c2.cols(), "c2 must be square");
        self.c1.rebuild(c1);
        self.c2.rebuild(c2);
    }
}

/// Computes `L(C1, C2) ⊗ π` over the nonzeros of `C1` and `C2`.
///
/// Allocates fresh scratch per call; the conditional-gradient hot loop
/// loads `C1`, `C2` once and reuses the workspace-backed
/// `gw_tensor_apply_into` (crate-private) instead.
///
/// # Panics
/// Panics if `c1`/`c2` are not square or `π` has mismatched shape.
#[must_use]
pub fn gw_tensor_apply(c1: &Matrix, c2: &Matrix, pi: &Matrix) -> Matrix {
    let mut scratch = GwScratch::default();
    scratch.load(c1, c2);
    let mut out = Matrix::zeros(0, 0);
    gw_tensor_apply_into(pi, &mut out, &mut scratch);
    out
}

/// `L(C1, C2) ⊗ π` for the `C1`, `C2` last passed to [`GwScratch::load`],
/// into a caller-provided output matrix, with every intermediate buffer
/// drawn from `scratch`. Bit-identical to [`gw_tensor_apply`].
pub(crate) fn gw_tensor_apply_into(pi: &Matrix, out: &mut Matrix, scratch: &mut GwScratch) {
    let GwScratch {
        c1,
        c2,
        r,
        c,
        t1,
        t2,
        tmp,
    } = scratch;
    let (n, m) = (c1.len(), c2.len());
    assert_eq!(pi.shape(), (n, m), "pi shape mismatch");

    // r = π 1 (row sums), c = πᵀ 1 (column sums).
    r.clear();
    r.extend((0..n).map(|i| pi.row(i).iter().sum::<f64>()));
    reset(c, m, 0.0);
    for i in 0..n {
        for (o, &x) in c.iter_mut().zip(pi.row(i)) {
            *o += x;
        }
    }

    // term1_{i,k} = Σ_j C1_{i,j}² r_j   (constant in k)
    t1.clear();
    t1.extend((0..n).map(|i| sparse_sum(c1.row(i), r, |a, rj| a * a * rj)));
    // term2_{i,k} = Σ_l C2_{k,l}² c_l   (constant in i)
    t2.clear();
    t2.extend((0..m).map(|k| sparse_sum(c2.row(k), c, |b, cl| b * b * cl)));

    // tmp = C1 π, accumulated row by row and skipping zero factors
    // exactly as `Matrix::matmul_into` does.
    tmp.resize_zeroed(n, m);
    for i in 0..n {
        let (cols, vals) = c1.row(i);
        let trow = tmp.row_mut(i);
        for (&j, &a) in cols.iter().zip(vals) {
            if a == 0.0 {
                continue;
            }
            for (o, &p) in trow.iter_mut().zip(pi.row(j)) {
                *o += a * p;
            }
        }
    }

    // term3_{i,k} = (C1 π C2ᵀ)_{i,k} = Σ_l tmp_{i,l} C2_{k,l}
    out.resize_zeroed(n, m);
    for (i, &t1i) in t1.iter().enumerate() {
        let trow = tmp.row(i);
        for (k, o) in out.row_mut(i).iter_mut().enumerate() {
            let t3 = sparse_sum(c2.row(k), trow, |b, t| t * b);
            *o = t1i + t2[k] - 2.0 * t3;
        }
    }
}

/// Reference `O(n⁴)` implementation of `L ⊗ π`, used to validate
/// [`gw_tensor_apply`]. Exposed for tests and benches.
#[must_use]
pub fn gw_tensor_apply_naive(c1: &Matrix, c2: &Matrix, pi: &Matrix) -> Matrix {
    let n = c1.rows();
    let m = c2.rows();
    Matrix::from_fn(n, m, |i, k| {
        let mut acc = 0.0;
        for j in 0..n {
            for l in 0..m {
                let d = c1[(i, j)] - c2[(k, l)];
                acc += d * d * pi[(j, l)];
            }
        }
        acc
    })
}

/// The (full, un-halved) GW objective `⟨π, L(C1,C2) ⊗ π⟩`.
#[must_use]
pub fn gw_objective(c1: &Matrix, c2: &Matrix, pi: &Matrix) -> f64 {
    pi.dot(&gw_tensor_apply(c1, c2, pi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rand_sym(n: usize, rng: &mut SmallRng) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in (i + 1)..n {
                let v = if rng.gen_bool(0.5) { 1.0 } else { 0.0 };
                m[(i, j)] = v;
                m[(j, i)] = v;
            }
        }
        m
    }

    #[test]
    fn fast_matches_naive() {
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..30 {
            let n = rng.gen_range(2..=7);
            let m = rng.gen_range(2..=7);
            let c1 = rand_sym(n, &mut rng);
            let c2 = rand_sym(m, &mut rng);
            let pi = Matrix::from_fn(n, m, |_, _| rng.gen_range(0.0..1.0));
            let fast = gw_tensor_apply(&c1, &c2, &pi);
            let naive = gw_tensor_apply_naive(&c1, &c2, &pi);
            assert!(fast.max_abs_diff(&naive) < 1e-9);
        }
    }

    /// The dense `O(n³)` evaluation of the decomposition in the module
    /// docs: the bit-level oracle for the nonzero-only kernel.
    fn dense_apply(c1: &Matrix, c2: &Matrix, pi: &Matrix) -> Matrix {
        let (n, m) = (c1.rows(), c2.rows());
        let r: Vec<f64> = (0..n).map(|i| pi.row(i).iter().sum::<f64>()).collect();
        let mut c = vec![0.0; m];
        for i in 0..n {
            for (o, &x) in c.iter_mut().zip(pi.row(i)) {
                *o += x;
            }
        }
        let t1: Vec<f64> = (0..n)
            .map(|i| {
                c1.row(i)
                    .iter()
                    .zip(&r)
                    .map(|(&a, &rj)| a * a * rj)
                    .sum::<f64>()
            })
            .collect();
        let t2: Vec<f64> = (0..m)
            .map(|k| {
                c2.row(k)
                    .iter()
                    .zip(&c)
                    .map(|(&b, &cl)| b * b * cl)
                    .sum::<f64>()
            })
            .collect();
        let t3 = c1.matmul(pi).matmul_transpose_b(c2);
        Matrix::from_fn(n, m, |i, k| t1[i] + t2[k] - 2.0 * t3[(i, k)])
    }

    /// A symmetric cost matrix: binary or weighted (with stored `-0.0`
    /// entries), and with every entry of row/column `zero_row` zeroed.
    fn cost(n: usize, weighted: bool, zero_row: Option<usize>, rng: &mut SmallRng) -> Matrix {
        let mut c = rand_sym(n, rng);
        if weighted {
            for i in 0..n {
                for j in (i + 1)..n {
                    let w = match rng.gen_range(0..4) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.gen_range(-2.0..2.0),
                    };
                    c[(i, j)] = w;
                    c[(j, i)] = w;
                }
            }
        }
        if let Some(z) = zero_row.filter(|&z| z < n) {
            for j in 0..n {
                c[(z, j)] = 0.0;
                c[(j, z)] = 0.0;
            }
        }
        c
    }

    /// A coupling-like matrix of one of several sign patterns, including
    /// line-search directions `Δ = P − π` with negative entries.
    fn coupling(n: usize, m: usize, kind: usize, rng: &mut SmallRng) -> Matrix {
        let pos = Matrix::from_fn(n, m, |_, _| rng.gen_range(0.0..1.0) / m as f64);
        match kind {
            0 => pos,
            1 => {
                let shift = rng.gen_range(0..m);
                Matrix::from_fn(n, m, |i, k| {
                    let d = if (i + shift) % m == k { 1.0 } else { 0.0 };
                    d - pos[(i, k)]
                })
            }
            2 => Matrix::filled(n, m, -0.25),
            _ => Matrix::from_fn(n, m, |_, _| rng.gen_range(-1.0..1.0)),
        }
    }

    #[test]
    fn sparse_apply_is_bit_identical_to_dense() {
        let mut rng = SmallRng::seed_from_u64(12);
        let mut scratch = GwScratch::default();
        let mut out = Matrix::zeros(0, 0);
        for case in 0..400 {
            let n = rng.gen_range(1..=8);
            let m = rng.gen_range(1..=8);
            let weighted = case % 3 == 1;
            let z1 = (case % 2 == 0).then(|| rng.gen_range(0..n));
            let z2 = (case % 4 < 2).then(|| rng.gen_range(0..m));
            let c1 = cost(n, weighted, z1, &mut rng);
            let c2 = cost(m, weighted, z2, &mut rng);
            let pi = coupling(n, m, case % 4, &mut rng);
            let want = dense_apply(&c1, &c2, &pi);
            // One dirty scratch across every shape, as in the CG loop.
            scratch.load(&c1, &c2);
            gw_tensor_apply_into(&pi, &mut out, &mut scratch);
            let fresh = gw_tensor_apply(&c1, &c2, &pi);
            for ((g, f), w) in out
                .as_slice()
                .iter()
                .zip(fresh.as_slice())
                .zip(want.as_slice())
            {
                assert_eq!(g.to_bits(), w.to_bits(), "case {case}: {g} vs {w}");
                assert_eq!(f.to_bits(), w.to_bits(), "case {case}: {f} vs {w}");
            }
        }
    }

    #[test]
    fn sparse_apply_keeps_the_dense_sign_of_zero() {
        // An edgeless C1, a C2 whose node 2 is isolated, and all-negative
        // marginals: the dense sums give t1 = t2 = -0.0 and t3 = +0.0 at
        // (i, 2), so that entry is -0.0, while the sparse t3 is an empty
        // sum (-0.0) until its sign is repaired.
        let c1 = Matrix::zeros(2, 2);
        let c2 = Matrix::from_vec(3, 3, vec![0., 1., 0., 1., 0., 0., 0., 0., 0.]);
        let pi = Matrix::filled(2, 3, -0.25);
        let want = dense_apply(&c1, &c2, &pi);
        let got = gw_tensor_apply(&c1, &c2, &pi);
        assert_eq!(want[(0, 2)].to_bits(), (-0.0f64).to_bits());
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            assert_eq!(g.to_bits(), w.to_bits(), "{g} vs {w}");
        }
    }

    #[test]
    fn identical_graphs_identity_coupling_zero() {
        let mut rng = SmallRng::seed_from_u64(10);
        let a = rand_sym(6, &mut rng);
        let pi = Matrix::identity(6);
        assert!(gw_objective(&a, &a, &pi).abs() < 1e-12);
    }

    #[test]
    fn permutation_coupling_counts_edge_mismatch() {
        // A1 = path 0-1-2; A2 = triangle. Identity coupling: mismatched pair
        // (0,2): A1=0 vs A2=1, counted twice (i,j)/(j,i) -> objective 2.
        let a1 = Matrix::from_vec(3, 3, vec![0., 1., 0., 1., 0., 1., 0., 1., 0.]);
        let a2 = Matrix::from_vec(3, 3, vec![0., 1., 1., 1., 0., 1., 1., 1., 0.]);
        let pi = Matrix::identity(3);
        let obj = gw_objective(&a1, &a2, &pi);
        assert!((obj - 2.0).abs() < 1e-12, "obj {obj}");
    }

    #[test]
    fn objective_nonnegative() {
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..20 {
            let n = rng.gen_range(2..=6);
            let c1 = rand_sym(n, &mut rng);
            let c2 = rand_sym(n, &mut rng);
            let pi = Matrix::from_fn(n, n, |_, _| rng.gen_range(0.0..0.5));
            assert!(gw_objective(&c1, &c2, &pi) >= -1e-12);
        }
    }
}
