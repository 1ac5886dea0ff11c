//! A small dense row-major `f64` matrix.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Dense row-major matrix of `f64`.
///
/// Sized for this project's regime (graphs with tens to a few hundred
/// nodes): simple contiguous storage, a register-tiled product, and a rich
/// set of element-wise helpers used by the OT kernels and the autodiff tape.
///
/// [`Matrix::matmul_into`] (and so [`Matrix::matmul`]) compacts each row of
/// the left factor, 64 entries at a time, into its nonzero `(k, a_ik)`
/// pairs on the stack, then runs tiles of output columns whose accumulators
/// stay in registers while the pairs stream past. Each output element still
/// starts at `+0.0` and adds `a_ik · b_kj` for every nonzero `a_ik` in
/// ascending `k`, exactly as the textbook `ikj` loop that skips zero
/// `a_ik`: same operations, same order, no FMA contraction, so the result
/// bits are the loop's (up to the sign and payload of a NaN result, which
/// Rust leaves unspecified). The kernel is compiled three times: for
/// baseline x86-64 with 8-wide tiles, for AVX2 with 32-wide ones and for
/// AVX-512F with 64-wide ones. Each call runs the widest copy that
/// `is_x86_feature_detected!` finds the host supports (other architectures
/// run the baseline copy). A unit test compares every copy the host can run
/// with the loop, bit for bit.
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
        if self.cols == 0 || other.cols == 0 {
            return;
        }
        let (a, b, m) = (&self.data, &other.data, other.cols);
        if !Simd::WIDEST_FIRST
            .into_iter()
            .any(|simd| simd.run(a, b, m, &mut out.data))
        {
            matmul_kernel::<8>(a, b, m, &mut out.data);
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

/// Entries of a row of `A` that [`matmul_kernel`] compacts per pass: their
/// nonzeros fit one stack chunk, so the kernel never allocates.
const CHUNK: usize = 64;

/// The body of [`Matrix::matmul_into`]: `out += a · b` for a zeroed `out`,
/// where `b` is `k × m` and `a` is `out.len() / m × k`, all row-major with
/// `k, m > 0`. `MAX_TILE` (8, 32 or 64) is the widest column tile.
///
/// Each row of `a` is taken [`CHUNK`] entries at a time, and the entries
/// with `a_ik != 0.0` (NaN stays, ±0.0 goes, as in the `ikj` loop's skip)
/// are compacted into a stack chunk. Every tile of output columns then
/// loads its accumulators from `out`, adds `a_ik · b_kj` for each kept `k`
/// in ascending order and stores them back; the columns left over take
/// narrower tiles, down to one wide. Each output element therefore goes
/// through the `ikj` loop's exact sequence of roundings, whatever the tile
/// width (Rust never contracts `a * b + c` into an FMA).
#[inline(always)]
fn matmul_kernel<const MAX_TILE: usize>(a: &[f64], b: &[f64], m: usize, out: &mut [f64]) {
    let k = b.len() / m;
    let mut chunk = [(0usize, 0.0f64); CHUNK];
    for (arow, orow) in a.chunks_exact(k).zip(out.chunks_exact_mut(m)) {
        for (start, segment) in (0..k).step_by(CHUNK).zip(arow.chunks(CHUNK)) {
            // Branch-free: every entry is written, and a zero is then
            // overwritten by the next one.
            let mut len = 0;
            for (kk, &x) in (start..).zip(segment) {
                chunk[len] = (kk, x);
                len += usize::from(x != 0.0);
            }
            let nz = &chunk[..len];
            let mut j = 0;
            if MAX_TILE >= 64 {
                j = tiles::<64>(nz, b, m, j, orow);
            }
            if MAX_TILE >= 32 {
                j = tiles::<32>(nz, b, m, j, orow);
                j = tiles::<16>(nz, b, m, j, orow);
            }
            j = tiles::<8>(nz, b, m, j, orow);
            j = tiles::<4>(nz, b, m, j, orow);
            tiles::<1>(nz, b, m, j, orow);
        }
    }
}

/// Output columns from `j` on of one row, in tiles of `W` while `W` fit;
/// returns the first column left. Each tile's accumulators start from
/// `orow`, take `a_ik · b_kj` for each compacted `(k, a_ik)` in order, and
/// are stored back. `W` is a constant, so they live in registers.
#[inline(always)]
fn tiles<const W: usize>(
    nz: &[(usize, f64)],
    b: &[f64],
    m: usize,
    mut j: usize,
    orow: &mut [f64],
) -> usize {
    while j + W <= m {
        let out: &mut [f64; W] = (&mut orow[j..j + W]).try_into().expect("W columns");
        let mut acc = *out;
        for &(k, x) in nz {
            let brow: &[f64; W] = b[k * m + j..k * m + j + W].try_into().expect("W columns");
            for (s, &y) in acc.iter_mut().zip(brow) {
                *s += x * y;
            }
        }
        *out = acc;
        j += W;
    }
    j
}

/// The SIMD builds of [`matmul_kernel`], each with eight vector registers
/// of accumulators per tile. A host with neither runs the baseline build,
/// whose 8-wide tiles need four of baseline x86-64's sixteen `xmm`
/// registers, so its accumulators never spill.
#[derive(Clone, Copy, Debug)]
enum Simd {
    /// AVX-512F: 64-wide tiles in `zmm` registers.
    Avx512,
    /// AVX2: 32-wide tiles in `ymm` registers.
    Avx2,
}

impl Simd {
    /// The order [`Matrix::matmul_into`] tries them in.
    const WIDEST_FIRST: [Simd; 2] = [Simd::Avx512, Simd::Avx2];

    /// Runs this build of the kernel if the host supports its target
    /// feature, and returns whether it did.
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
    fn run(self, a: &[f64], b: &[f64], m: usize, out: &mut [f64]) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            type Kernel = unsafe fn(&[f64], &[f64], usize, &mut [f64]);
            let (supported, kernel): (bool, Kernel) = match self {
                Simd::Avx512 => (
                    std::is_x86_feature_detected!("avx512f"),
                    matmul_kernel_avx512,
                ),
                Simd::Avx2 => (std::is_x86_feature_detected!("avx2"), matmul_kernel_avx2),
            };
            if supported {
                // SAFETY: `supported` is the run-time detection of the one
                // target feature that `kernel` is compiled with.
                unsafe { kernel(a, b, m, out) };
                return true;
            }
        }
        false
    }
}

/// [`matmul_kernel`] with 64-wide tiles, compiled for AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn matmul_kernel_avx512(a: &[f64], b: &[f64], m: usize, out: &mut [f64]) {
    matmul_kernel::<64>(a, b, m, out);
}

/// [`matmul_kernel`] with 32-wide tiles, compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn matmul_kernel_avx2(a: &[f64], b: &[f64], m: usize, out: &mut [f64]) {
    matmul_kernel::<32>(a, b, m, out);
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
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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

    /// The textbook `ikj` loop, the tiled kernel's reference: skip
    /// `a_ik == 0.0`, add `a_ik · b_kj` into the zeroed output row in
    /// ascending `k`.
    fn matmul_ikj(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            for (k, &aik) in a.row(i).iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                for (o, &y) in out.row_mut(i).iter_mut().zip(b.row(k)) {
                    *o += aik * y;
                }
            }
        }
        out
    }

    /// The bits of every element, with each NaN as the one canonical NaN:
    /// Rust leaves the sign and payload of a NaN result unspecified (when
    /// both addends are NaN, x86 keeps whichever the register allocator
    /// put first), so neither the loop nor the kernel defines them.
    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice()
            .iter()
            .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
            .collect()
    }

    /// Every copy of the kernel this host can run equals the `ikj` loop
    /// bit for bit: the baseline build at its 8-wide and (for the tile
    /// logic) 64-wide tiles, the AVX2 and AVX-512 builds when the host
    /// supports them, and `matmul_into` itself writing into one output
    /// reused, dirty, across shapes. Rows of up to 300 entries cross the
    /// 64-entry chunk, and both operands mix signed zeros, NaN, infinities
    /// and subnormals (and products that underflow to subnormals) into
    /// random values.
    #[test]
    fn tiled_kernels_are_bit_identical_to_the_ikj_loop() {
        type Kernel = fn(&[f64], &[f64], usize, &mut [f64]) -> bool;
        let kernels: [(&str, Kernel); 4] = [
            ("baseline", |a, b, m, out| {
                matmul_kernel::<8>(a, b, m, out);
                true
            }),
            ("baseline, 64-wide tiles", |a, b, m, out| {
                matmul_kernel::<64>(a, b, m, out);
                true
            }),
            ("avx2", |a, b, m, out| Simd::Avx2.run(a, b, m, out)),
            ("avx512", |a, b, m, out| Simd::Avx512.run(a, b, m, out)),
        ];
        let special = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
            -f64::MIN_POSITIVE / 3.0,
        ];
        let mut rng = SmallRng::seed_from_u64(28);
        let entry = |rng: &mut SmallRng| match rng.gen_range(0..20) {
            0..=7 => [0.0, -0.0][rng.gen_range(0..2)],
            8 => special[rng.gen_range(0..special.len())],
            9 => rng.gen_range(-1.0..1.0) * 1e-160,
            _ => rng.gen_range(-2.0..2.0),
        };
        let mut out = Matrix::filled(3, 7, f64::NAN);
        let mut dirty = Matrix::filled(5, 11, f64::NAN);
        for trial in 0..1_500 {
            let n = rng.gen_range(0..=12);
            let k = rng.gen_range(0..=300);
            let m = match rng.gen_range(0..6) {
                0 => 85,
                1 => 170,
                _ => rng.gen_range(1..=40),
            };
            let a = Matrix::from_fn(n, k, |_, _| entry(&mut rng));
            let b = Matrix::from_fn(k, m, |_, _| entry(&mut rng));
            let want = bits(&matmul_ikj(&a, &b));
            a.matmul_into(&b, &mut dirty);
            assert_eq!(dirty.shape(), (n, m));
            assert_eq!(bits(&dirty), want, "trial {trial}: matmul_into {n}x{k}x{m}");
            if k == 0 {
                continue;
            }
            for (name, kernel) in kernels {
                out.resize_zeroed(n, m);
                if kernel(&a.data, &b.data, m, &mut out.data) {
                    assert_eq!(bits(&out), want, "trial {trial}: {name} {n}x{k}x{m}");
                }
            }
        }
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
