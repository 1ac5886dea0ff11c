//! A small dense row-major `f64` matrix.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Dense row-major matrix of `f64`.
///
/// Sized for this project's regime (graphs with tens to a few hundred
/// nodes): simple contiguous storage, `ikj` multiplication order, and a rich
/// set of element-wise helpers used by the OT kernels and the autodiff tape.
#[derive(Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// A `rows x cols` matrix of zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A `rows x cols` matrix filled with `value`.
    #[must_use]
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        let mut out = Matrix::default();
        out.resize_filled(rows, cols, value);
        out
    }

    /// The `n x n` identity.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Wraps a row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from a function of `(row, col)`.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut out = Matrix::default();
        out.fill_from_fn(rows, cols, f);
        out
    }

    /// [`Self::from_fn`] into `self` (reshaped as needed), reusing its
    /// buffer.
    pub fn fill_from_fn(
        &mut self,
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize) -> f64,
    ) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.reserve(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                self.data.push(f(r, c));
            }
        }
    }

    /// A column vector (`n x 1`).
    #[must_use]
    pub fn col_vec(data: Vec<f64>) -> Self {
        let n = data.len();
        Matrix {
            rows: n,
            cols: 1,
            data,
        }
    }

    /// A row vector (`1 x n`).
    #[must_use]
    pub fn row_vec(data: Vec<f64>) -> Self {
        let n = data.len();
        Matrix {
            rows: 1,
            cols: n,
            data,
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying row-major buffer.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Row `r` as a slice.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshapes to `rows x cols` with every element zero, reusing the
    /// existing buffer when its capacity suffices. This is the workspace
    /// primitive: repeated solves of similar sizes stop reallocating.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes to `rows x cols` with every element `value`, reusing the
    /// existing buffer when its capacity suffices.
    pub fn resize_filled(&mut self, rows: usize, cols: usize, value: f64) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, value);
    }

    /// Makes `self` an exact copy of `other` (shape and data), reusing the
    /// existing buffer when possible.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    #[must_use]
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Self::matmul`] into a caller-provided output matrix (reshaped as
    /// needed). Bit-identical to the allocating version.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul dims: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        out.resize_zeroed(self.rows, other.cols);
        // ikj order: stream over other's rows, accumulate into out's row.
        for i in 0..self.rows {
            let arow = self.row(i);
            for (k, &aik) in arow.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let brow = other.row(k);
                let orow = out.row_mut(i);
                for (o, &b) in orow.iter_mut().zip(brow.iter()) {
                    *o += aik * b;
                }
            }
        }
    }

    /// `self * otherᵀ` without materializing the transpose.
    ///
    /// # Panics
    /// Panics if `self.cols != other.cols`.
    #[must_use]
    pub fn matmul_transpose_b(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_transpose_b_into(other, &mut out);
        out
    }

    /// [`Self::matmul_transpose_b`] into a caller-provided output matrix
    /// (reshaped as needed). Bit-identical to the allocating version.
    ///
    /// # Panics
    /// Panics if `self.cols != other.cols`.
    pub fn matmul_transpose_b_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_transpose_b inner dims");
        out.resize_zeroed(self.rows, other.rows);
        for i in 0..self.rows {
            let arow = self.row(i);
            for j in 0..other.rows {
                out.data[i * other.rows + j] =
                    arow.iter().zip(other.row(j)).map(|(a, b)| a * b).sum();
            }
        }
    }

    /// The transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::default();
        self.transpose_into(&mut out);
        out
    }

    /// [`Self::transpose`] into a caller-provided output matrix.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.fill_from_fn(self.cols, self.rows, |i, j| self[(j, i)]);
    }

    /// Element-wise map into a new matrix.
    #[must_use]
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        let mut out = Matrix::default();
        self.map_into(&mut out, f);
        out
    }

    /// [`Self::map`] into a caller-provided output matrix.
    pub fn map_into(&self, out: &mut Matrix, f: impl Fn(f64) -> f64) {
        out.rows = self.rows;
        out.cols = self.cols;
        out.data.clear();
        out.data.extend(self.data.iter().map(|&x| f(x)));
    }

    /// Element-wise combination of two same-shape matrices.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    #[must_use]
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        let mut out = Matrix::default();
        self.zip_map_into(other, &mut out, f);
        out
    }

    /// [`Self::zip_map`] into a caller-provided output matrix.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip_map_into(&self, other: &Matrix, out: &mut Matrix, f: impl Fn(f64, f64) -> f64) {
        assert_eq!(self.shape(), other.shape(), "zip_map shape mismatch");
        out.rows = self.rows;
        out.cols = self.cols;
        out.data.clear();
        out.data
            .extend(self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)));
    }

    /// `self + other`.
    #[must_use]
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a + b)
    }

    /// [`Self::add`] into a caller-provided output matrix.
    pub fn add_into(&self, other: &Matrix, out: &mut Matrix) {
        self.zip_map_into(other, out, |a, b| a + b);
    }

    /// `self - other`.
    #[must_use]
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a - b)
    }

    /// [`Self::sub`] into a caller-provided output matrix.
    pub fn sub_into(&self, other: &Matrix, out: &mut Matrix) {
        self.zip_map_into(other, out, |a, b| a - b);
    }

    /// Hadamard (element-wise) product.
    #[must_use]
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a * b)
    }

    /// [`Self::hadamard`] into a caller-provided output matrix.
    pub fn hadamard_into(&self, other: &Matrix, out: &mut Matrix) {
        self.zip_map_into(other, out, |a, b| a * b);
    }

    /// `self` with the `1 x cols` row vector `row` added to every row
    /// (`out_ij = self_ij + row_j`), into a caller-provided output matrix.
    ///
    /// # Panics
    /// Panics if `row` is not `1 x self.cols`.
    pub fn add_row_into(&self, row: &Matrix, out: &mut Matrix) {
        assert_eq!(row.shape(), (1, self.cols), "broadcast row shape");
        out.copy_from(self);
        if self.cols == 0 {
            return;
        }
        for orow in out.data.chunks_exact_mut(self.cols) {
            for (o, &r) in orow.iter_mut().zip(&row.data) {
                *o += r;
            }
        }
    }

    /// `self * scalar`.
    #[must_use]
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// [`Self::scale`] into a caller-provided output matrix.
    pub fn scale_into(&self, s: f64, out: &mut Matrix) {
        self.map_into(out, |x| x * s);
    }

    /// In-place `self += other * s`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_scaled_assign(&mut self, other: &Matrix, s: f64) {
        assert_eq!(self.shape(), other.shape());
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b * s;
        }
    }

    /// Frobenius inner product `⟨self, other⟩ = Σ_ij self_ij * other_ij`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    #[must_use]
    pub fn dot(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "dot shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// Frobenius norm.
    #[must_use]
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&x| x * x).sum::<f64>().sqrt()
    }

    /// Sum of all elements.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Per-row sums as a length-`rows` vector.
    #[must_use]
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows).map(|r| self.row(r).iter().sum()).collect()
    }

    /// Per-column sums as a length-`cols` vector.
    #[must_use]
    pub fn col_sums(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (o, &x) in out.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
        out
    }

    /// Maximum element (`-inf` for empty matrices).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum element (`inf` for empty matrices).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Scales row `r` by `s`.
    pub fn scale_row(&mut self, r: usize, s: f64) {
        for x in self.row_mut(r) {
            *x *= s;
        }
    }

    /// Scales column `c` by `s`.
    pub fn scale_col(&mut self, c: usize, s: f64) {
        for r in 0..self.rows {
            self.data[r * self.cols + c] *= s;
        }
    }

    /// Returns a copy with an extra row appended.
    ///
    /// # Panics
    /// Panics if `row.len() != cols`.
    #[must_use]
    pub fn with_appended_row(&self, row: &[f64]) -> Matrix {
        assert_eq!(row.len(), self.cols);
        let mut out = self.clone();
        out.data.extend_from_slice(row);
        out.rows += 1;
        out
    }

    /// `self` with a row of zeros appended, into a caller-provided output
    /// matrix: [`Self::with_appended_row`] of a zero row.
    pub fn with_zero_row_into(&self, out: &mut Matrix) {
        out.copy_from(self);
        out.data.resize(out.data.len() + self.cols, 0.0);
        out.rows += 1;
    }

    /// Returns a copy with the last row removed.
    ///
    /// # Panics
    /// Panics if the matrix has no rows.
    #[must_use]
    pub fn without_last_row(&self) -> Matrix {
        let mut out = Matrix::default();
        self.without_last_row_into(&mut out);
        out
    }

    /// [`Self::without_last_row`] into a caller-provided output matrix.
    ///
    /// # Panics
    /// Panics if the matrix has no rows.
    pub fn without_last_row_into(&self, out: &mut Matrix) {
        assert!(self.rows > 0);
        out.rows = self.rows - 1;
        out.cols = self.cols;
        out.data.clear();
        out.data
            .extend_from_slice(&self.data[..(self.rows - 1) * self.cols]);
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Panics
    /// Panics if row counts differ.
    #[must_use]
    pub fn hcat(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.hcat_into(other, &mut out);
        out
    }

    /// [`Self::hcat`] into a caller-provided output matrix.
    ///
    /// # Panics
    /// Panics if row counts differ.
    pub fn hcat_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "hcat row mismatch");
        out.rows = self.rows;
        out.cols = self.cols + other.cols;
        out.data.clear();
        out.data.reserve(self.len() + other.len());
        for r in 0..self.rows {
            out.data.extend_from_slice(self.row(r));
            out.data.extend_from_slice(other.row(r));
        }
    }

    /// True if all elements are finite.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute difference to another matrix (shape-checked).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    #[must_use]
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn matmul_known() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_transpose_b_agrees() {
        let a = Matrix::from_fn(3, 4, |i, j| (i * 7 + j) as f64 * 0.3);
        let b = Matrix::from_fn(5, 4, |i, j| (i + j * 2) as f64 - 1.5);
        let via_t = a.matmul(&b.transpose());
        let direct = a.matmul_transpose_b(&b);
        assert!(via_t.max_abs_diff(&direct) < 1e-12);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        assert_eq!(a.matmul(&Matrix::identity(4)), a);
        assert_eq!(Matrix::identity(4).matmul(&a), a);
    }

    #[test]
    fn sums_and_dot() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert!(approx(a.sum(), 10.0));
        assert_eq!(a.row_sums(), vec![3.0, 7.0]);
        assert_eq!(a.col_sums(), vec![4.0, 6.0]);
        let b = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert!(approx(a.dot(&b), 5.0));
        assert!(approx(a.frobenius_norm(), (30.0f64).sqrt()));
    }

    #[test]
    fn elementwise_helpers() {
        let a = Matrix::from_vec(1, 3, vec![1.0, -2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![2.0, 2.0, 2.0]);
        assert_eq!(a.add(&b).as_slice(), &[3.0, 0.0, 5.0]);
        assert_eq!(a.sub(&b).as_slice(), &[-1.0, -4.0, 1.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[2.0, -4.0, 6.0]);
        assert_eq!(a.scale(-1.0).as_slice(), &[-1.0, 2.0, -3.0]);
        assert_eq!(a.map(f64::abs).as_slice(), &[1.0, 2.0, 3.0]);
        assert!(approx(a.max(), 3.0));
        assert!(approx(a.min(), -2.0));
    }

    #[test]
    fn row_col_scaling() {
        let mut a = Matrix::filled(2, 2, 1.0);
        a.scale_row(0, 3.0);
        a.scale_col(1, 5.0);
        assert_eq!(a.as_slice(), &[3.0, 15.0, 1.0, 5.0]);
    }

    #[test]
    fn append_remove_row() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = a.with_appended_row(&[9.0, 9.0]);
        assert_eq!(b.shape(), (3, 2));
        assert_eq!(b.without_last_row(), a);
    }

    #[test]
    fn hcat_works() {
        let a = Matrix::from_vec(2, 1, vec![1.0, 2.0]);
        let b = Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let c = a.hcat(&b);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.as_slice(), &[1.0, 3.0, 4.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "matmul dims")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let _ = a.matmul(&Matrix::zeros(2, 3));
    }

    #[test]
    fn resize_zeroed_reuses_capacity_and_clears() {
        let mut m = Matrix::from_fn(4, 5, |i, j| (i * 5 + j) as f64 + 1.0);
        let cap = m.data.capacity();
        m.resize_zeroed(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(m.data.capacity(), cap, "shrinking must not reallocate");
        // Growing within capacity also stays zeroed (no stale data).
        m[(0, 0)] = 7.0;
        m.resize_zeroed(4, 5);
        assert_eq!(m.shape(), (4, 5));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        // Growing beyond capacity works too.
        m.resize_zeroed(8, 9);
        assert_eq!(m.len(), 72);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn copy_from_matches_clone() {
        let a = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f64 * 0.25);
        let mut b = Matrix::filled(7, 7, 9.0);
        b.copy_from(&a);
        assert_eq!(b, a);
    }

    #[test]
    fn into_variants_bit_identical_with_dirty_output() {
        let a = Matrix::from_fn(3, 4, |i, j| (i * 7 + j) as f64 * 0.3 - 1.0);
        let b = Matrix::from_fn(4, 5, |i, j| (i + j * 2) as f64 * 0.7);
        let mut dirty = Matrix::filled(2, 9, f64::NAN);
        a.matmul_into(&b, &mut dirty);
        assert_eq!(dirty, a.matmul(&b));
        let c = Matrix::from_fn(6, 4, |i, j| (i * 4 + j) as f64 - 5.5);
        a.matmul_transpose_b_into(&c, &mut dirty);
        assert_eq!(dirty, a.matmul_transpose_b(&c));
    }

    /// Every `_into` form the autodiff tape writes through equals its
    /// allocating form bit for bit, whatever the output held before.
    #[test]
    fn elementwise_into_variants_match_allocating_forms() {
        let a = Matrix::from_fn(3, 4, |i, j| (i * 7 + j) as f64 * 0.3 - 1.0);
        let b = Matrix::from_fn(3, 4, |i, j| (i + j * 2) as f64 * 0.7 + 0.1);
        let row = Matrix::from_fn(1, 4, |_, j| j as f64 - 1.5);
        let bits = |m: &Matrix| -> Vec<u64> { m.as_slice().iter().map(|x| x.to_bits()).collect() };
        let same = |got: &Matrix, want: &Matrix| {
            assert_eq!(got.shape(), want.shape());
            assert_eq!(bits(got), bits(want));
        };
        let mut out = Matrix::filled(5, 2, f64::NAN);
        a.transpose_into(&mut out);
        same(&out, &a.transpose());
        a.map_into(&mut out, f64::tanh);
        same(&out, &a.map(f64::tanh));
        a.zip_map_into(&b, &mut out, |x, y| x / y);
        same(&out, &a.zip_map(&b, |x, y| x / y));
        a.add_into(&b, &mut out);
        same(&out, &a.add(&b));
        a.sub_into(&b, &mut out);
        same(&out, &a.sub(&b));
        a.hadamard_into(&b, &mut out);
        same(&out, &a.hadamard(&b));
        a.scale_into(-0.25, &mut out);
        same(&out, &a.scale(-0.25));
        a.hcat_into(&b, &mut out);
        same(&out, &a.hcat(&b));
        a.without_last_row_into(&mut out);
        same(&out, &a.without_last_row());
        a.with_zero_row_into(&mut out);
        same(&out, &a.with_appended_row(&[0.0; 4]));
        a.add_row_into(&row, &mut out);
        same(&out, &Matrix::from_fn(3, 4, |i, j| a[(i, j)] + row[(0, j)]));
        out.fill_from_fn(2, 3, |i, j| (i * 3 + j) as f64);
        same(&out, &Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64));
        out.resize_filled(2, 2, 1.5);
        same(&out, &Matrix::filled(2, 2, 1.5));
    }
}
