//! Dense row-major matrices and vectors.
//!
//! The functional LLM surrogate only requires small dense linear algebra:
//! matrix-vector products for the per-token projections, dot products for the
//! attention scores, and a handful of element-wise transforms.  [`Matrix`] is a
//! simple row-major `Vec<f32>` container with checked constructors and
//! shape-checked operations.

use crate::{Result, TensorError};

/// A vector of `f32` values.
///
/// This is a plain type alias: vectors interoperate directly with slices and
/// standard iterator adaptors, which keeps the functional-model code close to
/// the paper's equations.
pub(crate) type Vector = Vec<f32>;

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
#[derive(Debug, Clone, PartialEq)]
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
    /// Returns [`TensorError::EmptyDimension`] if either dimension is zero and
    /// [`TensorError::ShapeOverflow`] if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Result<Self> {
        let len = element_count(rows, cols)?;
        Ok(Self {
            rows,
            cols,
            data: vec![0.0; len],
        })
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
    /// This is [`Matrix::matvec_rows_into`] over every row: the one matvec
    /// kernel, four rows at a time, each output element bitwise equal to
    /// [`dot`] of its row with `v` in the documented reference ordering.
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
        out.resize(self.rows, 0.0);
        self.matvec_rows_into(0..self.rows, v, out)
    }

    /// Matrix-vector product restricted to the row range `rows`, written into
    /// `out` (one element per row of the range).
    ///
    /// Each output element is bitwise identical to the corresponding element
    /// of a full [`Matrix::matvec`], so callers that only need a slice of the
    /// output — e.g. a single attention head's rows of a projection — can
    /// skip the rest of the work without changing any result.  Rows are
    /// taken four at a time: each chunk of `v` is loaded once for four rows'
    /// [`DOT_LANES`] accumulators, and every row keeps [`dot`]'s reference
    /// ordering.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if the range is reversed
    /// (`start > end`) or exceeds the row count, and
    /// [`TensorError::ShapeMismatch`] if `v.len() != self.cols()` or
    /// `out.len() != rows.len()`.
    pub fn matvec_rows_into(
        &self,
        rows: std::ops::Range<usize>,
        v: &[f32],
        out: &mut [f32],
    ) -> Result<()> {
        self.matvec_rows_n_into(rows, [v], [out])
    }

    /// The row range of the product with each of `N` vectors: the checks,
    /// then [`dot4`].  Only `N = 1` is called today; the kernel stays generic
    /// so a block of several tokens can share each pass over the rows.
    fn matvec_rows_n_into<const N: usize>(
        &self,
        rows: std::ops::Range<usize>,
        vs: [&[f32]; N],
        outs: [&mut [f32]; N],
    ) -> Result<()> {
        if rows.start > rows.end {
            return Err(TensorError::IndexOutOfBounds {
                index: rows.start,
                len: rows.end,
            });
        }
        if rows.end > self.rows {
            return Err(TensorError::IndexOutOfBounds {
                index: rows.end,
                len: self.rows,
            });
        }
        for (v, out) in vs.iter().zip(&outs) {
            if v.len() != self.cols || out.len() != rows.len() {
                return Err(TensorError::ShapeMismatch {
                    op: "matvec_rows",
                    lhs: (rows.len(), self.cols),
                    rhs: (v.len(), out.len()),
                });
            }
        }
        dot4(
            &self.data[rows.start * self.cols..rows.end * self.cols],
            vs,
            outs,
        );
        Ok(())
    }

    /// Scales every element by `factor`, returning a new matrix.
    pub fn scaled(&self, factor: f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * factor).collect(),
        }
    }

    /// The Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Iterates over rows as slices.
    pub(crate) fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols)
    }
}

/// The element count of a `rows × cols` matrix.
///
/// # Errors
///
/// Returns [`TensorError::EmptyDimension`] if either dimension is zero and
/// [`TensorError::ShapeOverflow`] if the product overflows `usize`.
fn element_count(rows: usize, cols: usize) -> Result<usize> {
    if rows == 0 {
        return Err(TensorError::EmptyDimension { what: "rows" });
    }
    if cols == 0 {
        return Err(TensorError::EmptyDimension { what: "cols" });
    }
    rows.checked_mul(cols)
        .ok_or(TensorError::ShapeOverflow { rows, cols })
}

/// Number of independent accumulators (and the chunk width) used by [`dot`].
///
/// # Why 4?
///
/// An accumulator-width sweep (widths 1/2/4/8/16, last run at commit
/// `bd804f1`) measured the tradeoff.  On the x86-64 hosts we measure, width 1
/// serializes on the ~4-cycle FP add latency; widths 2 and 4 recover most of
/// the throughput by keeping independent add chains in flight; widths beyond
/// 4 show no further gain at the surrogate's short row lengths (32–4096
/// elements) because the loop becomes load-bound, while burning more
/// registers and a longer reduction tail on every short row.  4 also matches
/// one 128-bit SIMD lane of `f32`s, so LLVM's auto-vectorizer maps the lane
/// array directly onto a vector accumulator.
///
/// Changing this constant changes the documented reference accumulation
/// ordering and therefore moves every digest and bit-exactness fixture
/// downstream — it is a format-breaking change, not a tuning knob, and a
/// change to it brings its own re-measurement.
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

/// [`dot`] of each `v.len()`-wide row of the flat block `rows` with `v`,
/// into `out` (one element per row), bit for bit: the one matvec kernel
/// ([`Matrix::matvec_rows_into`]'s, four rows at a time) over rows that are
/// not a [`Matrix`] — e.g. an attention head's stored keys against its
/// query, one score per key.
///
/// # Panics
///
/// Panics if `v` is empty or `rows.len() != v.len() * out.len()`.
pub fn dot_rows_into(rows: &[f32], v: &[f32], out: &mut [f32]) {
    assert!(!v.is_empty(), "dot_rows_into needs a non-empty vector");
    assert_eq!(
        rows.len(),
        v.len() * out.len(),
        "dot_rows_into takes one row of v's width per output"
    );
    dot4(rows, [v], [out]);
}

/// The one matvec kernel: [`dot`] of every row of `rows` (each as long as
/// every vector of `vs`) with each vector, into `outs` (one element per
/// row), bit for bit.  Rows go four at a time: every one of a block's `4·N`
/// outputs keeps its own [`DOT_LANES`] accumulators in the reference
/// ordering, while each chunk of a row is loaded once for all `N` vectors
/// and each chunk of a vector once for the four rows.  The rows left over
/// go through [`dot`].
fn dot4<'a, const N: usize>(rows: &'a [f32], vs: [&'a [f32]; N], outs: [&mut [f32]; N]) {
    let Some(n) = vs.first().map(|v| v.len()) else {
        return;
    };
    let full = n - n % DOT_LANES;
    let chunks = full / DOT_LANES;
    let cut = |r: &'a [f32]| r[..full].as_chunks::<DOT_LANES>().0;
    let cvs = vs.map(cut);
    // With every operand's chunk count stated up front, the chunk lookups
    // below compile to one shared index and no bounds check.
    assert!(cvs.iter().all(|cv| cv.len() == chunks));
    let mut quads = rows.chunks_exact(4 * n);
    let mut outs = outs.map(|out| out.as_chunks_mut::<4>());
    assert!(outs.iter().all(|(out, _)| out.len() == quads.len()));
    for (q, quad) in (&mut quads).enumerate() {
        let [r0, r1, r2, r3]: [&[f32]; 4] = std::array::from_fn(|i| &quad[i * n..(i + 1) * n]);
        let cut = |r: &'a [f32]| &r[..full].as_chunks::<DOT_LANES>().0[..chunks];
        let (c0, c1, c2, c3) = (cut(r0), cut(r1), cut(r2), cut(r3));
        let mut acc = [[[0.0f32; DOT_LANES]; 4]; N];
        for c in 0..chunks {
            let at = |r: &'a [[f32; DOT_LANES]]| &r[..chunks][c];
            let (c0, c1, c2, c3) = (at(c0), at(c1), at(c2), at(c3));
            for (acc, cv) in acc.iter_mut().zip(&cvs) {
                let cv = at(cv);
                for j in 0..DOT_LANES {
                    acc[0][j] += c0[j] * cv[j];
                    acc[1][j] += c1[j] * cv[j];
                    acc[2][j] += c2[j] * cv[j];
                    acc[3][j] += c3[j] * cv[j];
                }
            }
        }
        // An optimisation barrier, not a semantic one: without it LLVM packs
        // the four rows' final lane sums into shared vectors and transposes
        // the loop's accumulators to match, shuffling on every chunk (≈3×
        // slower on x86-64 than the independent vector chains above).
        let mut acc = std::hint::black_box(acc);
        for (acc, v) in acc.iter_mut().zip(vs) {
            for (lanes, row) in acc.iter_mut().zip([r0, r1, r2, r3]) {
                for (j, (x, y)) in row[full..].iter().zip(&v[full..]).enumerate() {
                    lanes[j] += x * y;
                }
            }
        }
        for ((out, _), acc) in outs.iter_mut().zip(acc) {
            out[q] = acc.map(|a| (a[0] + a[1]) + (a[2] + a[3]));
        }
    }
    for (r, row) in quads.remainder().chunks_exact(n).enumerate() {
        for ((_, rest), v) in outs.iter_mut().zip(vs) {
            rest[r] = dot(row, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `rows × cols` matrix from a flat row-major buffer.
    fn from_flat(rows: usize, cols: usize, data: Vec<f32>) -> Result<Matrix> {
        assert_eq!(data.len(), rows * cols);
        Matrix::from_rows(data.chunks(cols).map(<[f32]>::to_vec).collect())
    }

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
    fn row_and_column_access() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.row(1).unwrap(), &[3.0, 4.0]);
        let column: Vec<f32> = m.iter_rows().map(|row| row[0]).collect();
        assert_eq!(column, vec![1.0, 3.0]);
        assert_eq!((m.get(0, 1), m.get(1, 0)), (2.0, 3.0));
        assert!(m.row(2).is_err());
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

    /// A row range of the full product equals the reference ordering of each
    /// of its rows — not `matvec`, which runs the same kernel — and so the
    /// same slice of the full product.
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
        let mut slice = [0.0; 2];
        m.matvec_rows_into(1..3, &v, &mut slice).unwrap();
        for (r, o) in (1..3).zip(&slice) {
            let expected = dot_reference_ordering(m.row(r).unwrap(), &v);
            assert_eq!(o.to_bits(), expected.to_bits(), "row {r}");
            assert_eq!(o.to_bits(), full[r].to_bits(), "row {r}");
        }
        assert!(m.matvec_rows_into(3..5, &v, &mut slice).is_err());
        assert!(m.matvec_rows_into(0..2, &[1.0], &mut slice).is_err());
        assert!(m.matvec_rows_into(0..3, &v, &mut slice).is_err());
    }

    /// A reversed range is an index error, whatever the output length.
    #[test]
    fn matvec_rows_into_rejects_a_reversed_range() {
        let m = from_flat(4, 3, (0..12).map(|i| i as f32).collect()).unwrap();
        let v = [1.0, -1.0, 0.5];
        for out_len in [0, 2] {
            let mut out = vec![0.0; out_len];
            #[allow(clippy::reversed_empty_ranges)]
            let err = m.matvec_rows_into(3..1, &v, &mut out).unwrap_err();
            assert_eq!(err, TensorError::IndexOutOfBounds { index: 3, len: 1 });
        }
    }

    /// The one matvec kernel against a per-row realization of `dot`'s
    /// documented ordering, at row counts that leave 0–3 rows after the
    /// four-row blocks and widths with and without a remainder chunk.
    #[test]
    fn matvec_into_matches_per_row_reference_bitwise() {
        for rows in [1usize, 2, 3, 4, 5, 7, 64, 512] {
            for cols in [1usize, 3, 4, 5, 64, 172] {
                let data: Vec<f32> = (0..rows * cols)
                    .map(|i| (i as f32 * 0.37).sin() * 3.0)
                    .collect();
                let m = from_flat(rows, cols, data).unwrap();
                let v: Vec<f32> = (0..cols).map(|i| (i as f32 * 1.3).cos() * 2.0).collect();
                let mut out = vec![f32::NAN; 3];
                m.matvec_into(&v, &mut out).unwrap();
                assert_eq!(out.len(), rows);
                for (r, o) in out.iter().enumerate() {
                    let expected = dot_reference_ordering(m.row(r).unwrap(), &v);
                    assert_eq!(o.to_bits(), expected.to_bits(), "{rows}x{cols} row {r}");
                }
            }
        }
    }

    /// The four-row blocks and the rows left over after them agree with
    /// per-row `dot` bit for bit, for every row count and for widths with
    /// and without a remainder chunk — through a matrix's row ranges and
    /// through `dot_rows_into` on the same rows as a flat block (an
    /// attention head's keys are 8 wide in the surrogate, 12 in the
    /// corrected-read audit).
    #[test]
    fn blocked_row_ranges_match_dot_bitwise() {
        for cols in [1usize, 3, 4, 5, 8, 12, 13, 64] {
            let rows = 11;
            let data: Vec<f32> = (0..rows * cols)
                .map(|i| (i as f32 * 0.37).sin() * 3.0)
                .collect();
            let m = from_flat(rows, cols, data).unwrap();
            let v: Vec<f32> = (0..cols).map(|i| (i as f32 * 1.3).cos() * 2.0).collect();
            for start in [0, 2] {
                for end in start..=rows {
                    let mut out = vec![f32::NAN; end - start];
                    m.matvec_rows_into(start..end, &v, &mut out).unwrap();
                    let mut flat = vec![f32::NAN; end - start];
                    dot_rows_into(&m.data[start * cols..end * cols], &v, &mut flat);
                    for ((r, o), f) in (start..end).zip(&out).zip(&flat) {
                        let expected = dot(m.row(r).unwrap(), &v);
                        assert_eq!(o.to_bits(), expected.to_bits(), "cols {cols} row {r}");
                        assert_eq!(f.to_bits(), expected.to_bits(), "flat cols {cols} row {r}");
                    }
                }
            }
        }
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
        let doubled = Matrix::from_rows(vec![vec![2.0, 4.0], vec![6.0, 8.0]]).unwrap();
        assert_eq!(s, doubled);
    }

    #[test]
    fn frobenius_norm_of_identity() {
        let mut id = Matrix::zeros(4, 4).unwrap();
        for i in 0..4 {
            id.set(i, i, 1.0);
        }
        assert!((id.frobenius_norm() - 2.0).abs() < 1e-6);
    }

    /// A shape whose element count overflows `usize` is a typed error, not a
    /// wrapped count: an empty matrix that claims 2⁶³ rows would panic on its
    /// first row access.
    #[test]
    fn constructors_reject_a_shape_whose_element_count_overflows() {
        let (rows, cols) = (usize::MAX / 4 + 1, 8);
        assert_eq!(
            Matrix::zeros(rows, cols).unwrap_err(),
            TensorError::ShapeOverflow { rows, cols }
        );
        assert!(Matrix::zeros(rows, cols)
            .unwrap_err()
            .to_string()
            .contains("overflows"));
    }
}
