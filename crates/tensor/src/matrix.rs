//! Dense row-major matrices and vectors.
//!
//! The functional LLM surrogate only requires small dense linear algebra:
//! matrix-vector products for the per-token projections, dot products for the
//! attention scores, and a handful of element-wise transforms.  [`Matrix`] is a
//! simple row-major `Vec<f32>` container with checked constructors and
//! shape-checked operations.

use crate::{Result, TensorError};
use serde::{Deserialize, Serialize};

/// A vector of `f32` values.
///
/// This is a plain type alias: vectors interoperate directly with slices and
/// standard iterator adaptors, which keeps the functional-model code close to
/// the paper's equations.
pub type Vector = Vec<f32>;

/// A dense, row-major matrix of `f32` values.
///
/// # Example
///
/// ```rust
/// use kelle_tensor::Matrix;
///
/// # fn main() -> Result<(), kelle_tensor::TensorError> {
/// let m = Matrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 2.0]])?;
/// let v = m.matvec(&[3.0, 4.0])?;
/// assert_eq!(v, vec![3.0, 8.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix of zeros with the given shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Result<Self> {
        if rows == 0 {
            return Err(TensorError::EmptyDimension { what: "rows" });
        }
        if cols == 0 {
            return Err(TensorError::EmptyDimension { what: "cols" });
        }
        Ok(Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        })
    }

    /// Creates the `n`-by-`n` identity matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn identity(n: usize) -> Self {
        assert!(n > 0, "identity dimension must be non-zero");
        let mut m = Self::zeros(n, n).expect("non-zero checked above");
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from a vector of equal-length rows.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] for an empty row set or empty
    /// rows, and [`TensorError::RaggedRows`] if row lengths differ.
    pub fn from_rows(rows: Vec<Vec<f32>>) -> Result<Self> {
        if rows.is_empty() {
            return Err(TensorError::EmptyDimension { what: "rows" });
        }
        let cols = rows[0].len();
        if cols == 0 {
            return Err(TensorError::EmptyDimension { what: "cols" });
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in &rows {
            if row.len() != cols {
                return Err(TensorError::RaggedRows {
                    expected: cols,
                    found: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len() != rows * cols`
    /// and [`TensorError::EmptyDimension`] for zero dimensions.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if rows == 0 {
            return Err(TensorError::EmptyDimension { what: "rows" });
        }
        if cols == 0 {
            return Err(TensorError::EmptyDimension { what: "cols" });
        }
        if data.len() != rows * cols {
            return Err(TensorError::ShapeMismatch {
                op: "from_flat",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(
            row < self.rows && col < self.cols,
            "matrix index out of bounds"
        );
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(
            row < self.rows && col < self.cols,
            "matrix index out of bounds"
        );
        self.data[row * self.cols + col] = value;
    }

    /// Borrows row `row` as a slice.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `row >= self.rows()`.
    pub fn row(&self, row: usize) -> Result<&[f32]> {
        if row >= self.rows {
            return Err(TensorError::IndexOutOfBounds {
                index: row,
                len: self.rows,
            });
        }
        Ok(&self.data[row * self.cols..(row + 1) * self.cols])
    }

    /// Copies column `col` into a new vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `col >= self.cols()`.
    pub fn column(&self, col: usize) -> Result<Vector> {
        if col >= self.cols {
            return Err(TensorError::IndexOutOfBounds {
                index: col,
                len: self.cols,
            });
        }
        Ok((0..self.rows).map(|r| self.get(r, col)).collect())
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f32]) -> Result<Vector> {
        let mut out = Vec::new();
        self.matvec_into(v, &mut out)?;
        Ok(out)
    }

    /// Matrix-vector product into a caller-owned buffer (cleared and
    /// refilled), so hot loops can reuse one allocation across calls.
    ///
    /// Each output element is [`dot`] of the corresponding row with `v`, and
    /// therefore follows the documented multi-accumulator reference ordering;
    /// [`Matrix::matvec`] is a thin allocating wrapper with bitwise-identical
    /// results.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `v.len() != self.cols()`.
    pub fn matvec_into(&self, v: &[f32], out: &mut Vec<f32>) -> Result<()> {
        if v.len() != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matvec",
                lhs: (self.rows, self.cols),
                rhs: (v.len(), 1),
            });
        }
        out.clear();
        out.extend(self.data.chunks_exact(self.cols).map(|row| dot(row, v)));
        Ok(())
    }

    /// Matrix-vector product restricted to the row range `rows`, into a
    /// caller-owned buffer (cleared and refilled with `rows.len()` elements).
    ///
    /// Each output element is bitwise identical to the corresponding element
    /// of a full [`Matrix::matvec`] (rows are independent [`dot`] products),
    /// so callers that only need a slice of the output — e.g. a single
    /// attention head's rows of a projection — can skip the rest of the work
    /// without changing any result.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `v.len() != self.cols()` and
    /// [`TensorError::IndexOutOfBounds`] if the range exceeds the row count.
    pub fn matvec_rows_into(
        &self,
        rows: std::ops::Range<usize>,
        v: &[f32],
        out: &mut Vec<f32>,
    ) -> Result<()> {
        if v.len() != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matvec_rows",
                lhs: (self.rows, self.cols),
                rhs: (v.len(), 1),
            });
        }
        if rows.end > self.rows {
            return Err(TensorError::IndexOutOfBounds {
                index: rows.end,
                len: self.rows,
            });
        }
        out.clear();
        out.extend(
            self.data[rows.start * self.cols..rows.end * self.cols]
                .chunks_exact(self.cols)
                .map(|row| dot(row, v)),
        );
        Ok(())
    }

    /// Vector-matrix product `v^T * self`, i.e. treating `v` as a row vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `v.len() != self.rows()`.
    pub fn vecmat(&self, v: &[f32]) -> Result<Vector> {
        if v.len() != self.rows {
            return Err(TensorError::ShapeMismatch {
                op: "vecmat",
                lhs: (1, v.len()),
                rhs: (self.rows, self.cols),
            });
        }
        let mut out = vec![0.0f32; self.cols];
        for (r, &coeff) in v.iter().enumerate() {
            if coeff == 0.0 {
                continue;
            }
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (o, x) in out.iter_mut().zip(row.iter()) {
                *o += coeff * x;
            }
        }
        Ok(out)
    }

    /// Matrix-matrix product `self * other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the inner dimensions differ.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: (self.rows, self.cols),
                rhs: (other.rows, other.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols)?;
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    let v = out.get(i, j) + a * other.get(k, j);
                    out.set(i, j, v);
                }
            }
        }
        Ok(out)
    }

    /// Returns the transpose of this matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows).expect("shape is non-zero");
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Scales every element by `factor`, returning a new matrix.
    pub fn scaled(&self, factor: f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * factor).collect(),
        }
    }

    /// Element-wise sum with `other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "add",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        })
    }

    /// The Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols)
    }

    /// Consumes the matrix, returning the flat row-major buffer.
    pub fn into_flat(self) -> Vec<f32> {
        self.data
    }

    /// Number of `f32` elements stored.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix holds no elements (never true for a valid matrix).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Number of independent accumulators (and the chunk width) used by [`dot`].
///
/// # Why 4?
///
/// The `bench_dot_sweep` criterion bench (`crates/bench/benches/dot_sweep.rs`)
/// sweeps accumulator widths 1/2/4/8/16 and row-block sizes for the blocked
/// matvec.  On the x86-64 hosts we measure, width 1 serializes on the ~4-cycle
/// FP add latency; widths 2 and 4 recover most of the throughput by keeping
/// independent add chains in flight; widths beyond 4 show no further gain at
/// the surrogate's short row lengths (32–4096 elements) because the loop
/// becomes load-bound, while burning more registers and a longer reduction
/// tail on every short row.  4 also matches one 128-bit SIMD lane of `f32`s,
/// so LLVM's auto-vectorizer maps the lane array directly onto a vector
/// accumulator.
///
/// Changing this constant changes the documented reference accumulation
/// ordering and therefore every downstream bit-exactness fixture — it is a
/// format-breaking change, not a tuning knob.  The sweep bench exists so the
/// tradeoff can be re-measured without touching the constant.
pub const DOT_LANES: usize = 4;

/// Dot product of two equal-length slices, unrolled into [`DOT_LANES`]
/// independent accumulator chains so LLVM can keep the multiplies in flight
/// (and auto-vectorize) instead of serializing on one floating-point add per
/// element.
///
/// # Reference ordering
///
/// Floating-point addition is not associative, so the accumulation order is
/// part of the function's contract.  The *documented reference ordering* is:
///
/// 1. split the inputs into consecutive chunks of [`DOT_LANES`] elements;
/// 2. lane `j` accumulates the products at offset `j` of every chunk, in
///    chunk order: `acc[j] = Σ_c a[DOT_LANES·c + j] · b[DOT_LANES·c + j]`;
/// 3. the trailing remainder elements (fewer than [`DOT_LANES`]) are added to
///    lanes `0..rem` in order;
/// 4. lanes reduce pairwise: `(acc[0] + acc[1]) + (acc[2] + acc[3])`.
///
/// The property suite checks this implementation bitwise against an
/// independently written realization of the same ordering, so the result is
/// reproducible across platforms and refactors.
///
/// # Panics
///
/// Panics if the slices have different lengths; use in inner loops where the
/// lengths are guaranteed by construction.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(
        a.len(),
        b.len(),
        "dot product operands must be equal length"
    );
    let mut acc = [0.0f32; DOT_LANES];
    let chunks_a = a.chunks_exact(DOT_LANES);
    let chunks_b = b.chunks_exact(DOT_LANES);
    let rem_a = chunks_a.remainder();
    let rem_b = chunks_b.remainder();
    for (ca, cb) in chunks_a.zip(chunks_b) {
        for j in 0..DOT_LANES {
            acc[j] += ca[j] * cb[j];
        }
    }
    for (j, (x, y)) in rem_a.iter().zip(rem_b.iter()).enumerate() {
        acc[j] += x * y;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_rejects_empty() {
        assert!(Matrix::zeros(0, 3).is_err());
        assert!(Matrix::zeros(3, 0).is_err());
        assert!(Matrix::zeros(3, 3).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(vec![vec![1.0, 2.0], vec![1.0]]).unwrap_err();
        assert!(matches!(err, TensorError::RaggedRows { .. }));
    }

    #[test]
    fn matvec_matches_manual() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let out = m.matvec(&[1.0, 0.0, -1.0]).unwrap();
        assert_eq!(out, vec![-2.0, -2.0]);
    }

    #[test]
    fn vecmat_matches_transpose_matvec() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let v = vec![1.0, -1.0, 2.0];
        let a = m.vecmat(&v).unwrap();
        let b = m.transpose().matvec(&v).unwrap();
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let id = Matrix::identity(2);
        assert_eq!(m.matmul(&id).unwrap(), m);
        assert_eq!(id.matmul(&m).unwrap(), m);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3).unwrap();
        let b = Matrix::zeros(2, 3).unwrap();
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn row_and_column_access() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.row(1).unwrap(), &[3.0, 4.0]);
        assert_eq!(m.column(0).unwrap(), vec![1.0, 3.0]);
        assert!(m.row(2).is_err());
        assert!(m.column(5).is_err());
    }

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        // A length crossing several chunks plus a remainder.
        let a: Vec<f32> = (0..11).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..11).map(|i| (i as f32) * 0.5).collect();
        let expected: f32 = (0..11).map(|i| (i * i) as f32 * 0.5).sum();
        assert!((dot(&a, &b) - expected).abs() < 1e-3);
    }

    /// An independently written realization of the documented reference
    /// ordering (index arithmetic instead of chunk iterators); `dot` must
    /// match it bit for bit.  The proptest suite extends this over random
    /// inputs.
    fn dot_reference_ordering(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = [0.0f32; DOT_LANES];
        let full = a.len() / DOT_LANES;
        for c in 0..full {
            for (j, lane) in acc.iter_mut().enumerate() {
                *lane += a[DOT_LANES * c + j] * b[DOT_LANES * c + j];
            }
        }
        for (j, lane) in acc.iter_mut().enumerate().take(a.len() % DOT_LANES) {
            let i = DOT_LANES * full + j;
            *lane += a[i] * b[i];
        }
        (acc[0] + acc[1]) + (acc[2] + acc[3])
    }

    #[test]
    fn dot_matches_reference_ordering_bitwise() {
        for len in [0usize, 1, 3, 4, 5, 8, 13, 64, 97] {
            let a: Vec<f32> = (0..len).map(|i| (i as f32 * 0.7).sin() * 3.0).collect();
            let b: Vec<f32> = (0..len).map(|i| (i as f32 * 1.3).cos() * 2.0).collect();
            assert_eq!(
                dot(&a, &b).to_bits(),
                dot_reference_ordering(&a, &b).to_bits(),
                "len {len}"
            );
        }
    }

    #[test]
    fn matvec_rows_into_matches_full_matvec_bitwise() {
        let m = Matrix::from_rows(vec![
            vec![0.3, -1.2, 4.5],
            vec![1.0, 2.0, 3.0],
            vec![-0.5, 0.25, 9.0],
            vec![2.0, -2.0, 0.5],
        ])
        .unwrap();
        let v = vec![0.11, -0.5, 2.5];
        let full = m.matvec(&v).unwrap();
        let mut slice = Vec::new();
        m.matvec_rows_into(1..3, &v, &mut slice).unwrap();
        assert_eq!(slice.len(), 2);
        assert_eq!(slice[0].to_bits(), full[1].to_bits());
        assert_eq!(slice[1].to_bits(), full[2].to_bits());
        assert!(m.matvec_rows_into(3..5, &v, &mut slice).is_err());
        assert!(m.matvec_rows_into(0..1, &[1.0], &mut slice).is_err());
    }

    #[test]
    fn matvec_into_matches_matvec_bitwise() {
        let m = Matrix::from_rows(vec![
            vec![0.3, -1.2, 4.5, 2.2, -0.7],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        ])
        .unwrap();
        let v = vec![0.11, -0.5, 2.5, 0.0, 1.75];
        let alloc = m.matvec(&v).unwrap();
        let mut buf = vec![7.0; 3];
        m.matvec_into(&v, &mut buf).unwrap();
        assert_eq!(
            alloc.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            buf.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert!(m.matvec_into(&[1.0], &mut buf).is_err());
    }

    #[test]
    fn add_and_scale() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let s = m.scaled(2.0);
        let sum = m.add(&m).unwrap();
        assert_eq!(s, sum);
    }

    #[test]
    fn frobenius_norm_of_identity() {
        let id = Matrix::identity(4);
        assert!((id.frobenius_norm() - 2.0).abs() < 1e-6);
    }
}
