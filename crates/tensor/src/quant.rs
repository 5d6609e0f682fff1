//! Quantization emulation.
//!
//! The paper evaluates several numeric configurations:
//!
//! * the default Kelle configuration: **W8A16** — weights in INT8, activations
//!   and KV vectors in FP16 (§5, §7.1);
//! * a QuaRot-style configuration with 4-bit KV vectors used as a baseline with
//!   a matched storage budget (§7.1) and the **W4A8** variant in Table 6;
//! * the COMET comparator with 4-bit activations/KV (§8.2).
//!
//! [`QuantizedVector`] and [`QuantizedMatrix`] implement symmetric per-tensor
//! linear quantization with explicit integer storage words so that storage
//! sizes and quantization error can be modelled faithfully.

use crate::{Matrix, Result, TensorError};

/// Numeric storage formats used across the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum QuantFormat {
    /// IEEE-754 half precision (16 bits per element).
    Fp16,
    /// Signed 8-bit integers with a per-tensor scale.
    Int8,
    /// Signed 4-bit integers with a per-tensor scale (stored one per byte for
    /// simplicity; storage accounting uses the true 4-bit footprint).
    Int4,
}

impl QuantFormat {
    /// Storage cost in bits per element.
    pub(crate) fn bits_per_element(self) -> u32 {
        match self {
            QuantFormat::Fp16 => 16,
            QuantFormat::Int8 => 8,
            QuantFormat::Int4 => 4,
        }
    }

    /// Storage cost in bytes for `n` elements (rounded up to whole bytes).
    pub fn bytes_for(self, n: usize) -> usize {
        ((n as u64 * u64::from(self.bits_per_element())).div_ceil(8)) as usize
    }

    /// The number of quantization levels (unused for FP16).
    pub(crate) fn levels(self) -> u32 {
        match self {
            QuantFormat::Fp16 => 0,
            QuantFormat::Int8 => 256,
            QuantFormat::Int4 => 16,
        }
    }
}

/// The symmetric integer grid a slice quantizes to under an integer format:
/// one scale for the whole slice, sized so its largest magnitude maps to the
/// largest positive code.
#[derive(Debug, Clone, Copy)]
struct IntGrid {
    scale: f32,
    qmax: f32,
}

impl IntGrid {
    fn fit(values: &[f32], format: QuantFormat) -> Self {
        let max_abs = values.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let qmax = (format.levels() / 2 - 1) as f32;
        let scale = if max_abs == 0.0 { 1.0 } else { max_abs / qmax };
        IntGrid { scale, qmax }
    }

    fn code(self, v: f32) -> i32 {
        (v / self.scale).round().clamp(-self.qmax - 1.0, self.qmax) as i32
    }
}

/// Replaces every value by what it reads back as after quantizing the slice
/// to `format`: bit for bit `QuantizedVector::quantize(values, format)`
/// followed by [`dequantize`](QuantizedVector::dequantize), without
/// allocating.  An empty slice is left as it is.
pub fn round_trip_in_place(values: &mut [f32], format: QuantFormat) {
    match format {
        QuantFormat::Fp16 => {
            for v in values {
                *v = crate::fp16::f16_bits_to_f32(crate::fp16::f32_to_f16_bits(*v));
            }
        }
        QuantFormat::Int8 | QuantFormat::Int4 => {
            let grid = IntGrid::fit(values, format);
            for v in values {
                *v = grid.code(*v) as f32 * grid.scale;
            }
        }
    }
}

/// A vector quantized to a fixed-point format with a single scale factor.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedVector {
    format: QuantFormat,
    scale: f32,
    /// Integer codes; for FP16 this holds the raw bit patterns widened to i32.
    codes: Vec<i32>,
}

impl QuantizedVector {
    /// Quantizes a slice of `f32` values.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidQuantization`] if the input is empty.
    pub fn quantize(values: &[f32], format: QuantFormat) -> Result<Self> {
        if values.is_empty() {
            return Err(TensorError::InvalidQuantization {
                reason: "cannot quantize an empty vector".to_string(),
            });
        }
        match format {
            QuantFormat::Fp16 => {
                let codes = values
                    .iter()
                    .map(|&v| i32::from(crate::fp16::f32_to_f16_bits(v)))
                    .collect();
                Ok(Self {
                    format,
                    scale: 1.0,
                    codes,
                })
            }
            QuantFormat::Int8 | QuantFormat::Int4 => {
                let grid = IntGrid::fit(values, format);
                Ok(Self {
                    format,
                    scale: grid.scale,
                    codes: values.iter().map(|&v| grid.code(v)).collect(),
                })
            }
        }
    }

    /// Reconstructs the approximate `f32` values.
    pub fn dequantize(&self) -> Vec<f32> {
        match self.format {
            QuantFormat::Fp16 => self
                .codes
                .iter()
                .map(|&c| crate::fp16::f16_bits_to_f32(c as u16))
                .collect(),
            _ => self.codes.iter().map(|&c| c as f32 * self.scale).collect(),
        }
    }

    /// Mean absolute reconstruction error against a reference slice.
    ///
    /// # Panics
    ///
    /// Panics if `reference` has a different length.
    pub(crate) fn reconstruction_error(&self, reference: &[f32]) -> f32 {
        assert_eq!(reference.len(), self.codes.len());
        let deq = self.dequantize();
        deq.iter()
            .zip(reference.iter())
            .map(|(a, b)| (a - b).abs())
            .sum::<f32>()
            / reference.len() as f32
    }
}

/// A matrix quantized row-by-row with per-row scales (per-channel quantization),
/// matching how LLM weight matrices are quantized in practice.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    format: QuantFormat,
    rows: usize,
    cols: usize,
    row_vectors: Vec<QuantizedVector>,
}

impl QuantizedMatrix {
    /// Quantizes a dense matrix row-by-row.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`QuantizedVector::quantize`].
    pub fn quantize(matrix: &Matrix, format: QuantFormat) -> Result<Self> {
        let mut row_vectors = Vec::with_capacity(matrix.rows());
        for row in matrix.iter_rows() {
            row_vectors.push(QuantizedVector::quantize(row, format)?);
        }
        Ok(Self {
            format,
            rows: matrix.rows(),
            cols: matrix.cols(),
            row_vectors,
        })
    }

    /// Mean absolute reconstruction error against the original matrix.
    ///
    /// # Panics
    ///
    /// Panics if `reference` has a different shape.
    pub fn reconstruction_error(&self, reference: &Matrix) -> f32 {
        assert_eq!(reference.shape(), (self.rows, self.cols));
        let mut total = 0.0;
        for (qrow, row) in self.row_vectors.iter().zip(reference.iter_rows()) {
            total += qrow.reconstruction_error(row) * row.len() as f32;
        }
        total / (self.rows * self.cols) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_storage_costs() {
        assert_eq!(QuantFormat::Fp16.bytes_for(10), 20);
        assert_eq!(QuantFormat::Int8.bytes_for(10), 10);
        assert_eq!(QuantFormat::Int4.bytes_for(10), 5);
        assert_eq!(QuantFormat::Int4.bytes_for(11), 6);
    }

    #[test]
    fn int8_round_trip_small_error() {
        let values: Vec<f32> = (0..64).map(|i| (i as f32 - 32.0) * 0.1).collect();
        let q = QuantizedVector::quantize(&values, QuantFormat::Int8).unwrap();
        assert!(q.reconstruction_error(&values) < 0.02);
    }

    #[test]
    fn int4_coarser_than_int8() {
        let values: Vec<f32> = (0..64)
            .map(|i| ((i * 37) % 101) as f32 * 0.01 - 0.5)
            .collect();
        let q8 = QuantizedVector::quantize(&values, QuantFormat::Int8).unwrap();
        let q4 = QuantizedVector::quantize(&values, QuantFormat::Int4).unwrap();
        assert!(q4.reconstruction_error(&values) > q8.reconstruction_error(&values));
    }

    #[test]
    fn fp16_round_trip_exact_for_representable() {
        let values = vec![1.0, -2.5, 0.125, 4.0];
        let q = QuantizedVector::quantize(&values, QuantFormat::Fp16).unwrap();
        assert_eq!(q.dequantize(), values);
    }

    #[test]
    fn round_trip_in_place_matches_quantize_then_dequantize_bitwise() {
        let values: Vec<f32> = (0..67)
            .map(|i| ((i * 37) % 101) as f32 * 0.013 - 0.61)
            .chain([0.0, -0.0, 65_504.0, 1e-9, f32::NAN])
            .collect();
        for format in [QuantFormat::Fp16, QuantFormat::Int8, QuantFormat::Int4] {
            for slice in [&values[..1], &values[..67], &values[..]] {
                let fresh = QuantizedVector::quantize(slice, format)
                    .unwrap()
                    .dequantize();
                let mut image = slice.to_vec();
                round_trip_in_place(&mut image, format);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&image),
                    bits(&fresh),
                    "{format:?}, {} values",
                    slice.len()
                );
            }
        }
        let mut empty: [f32; 0] = [];
        round_trip_in_place(&mut empty, QuantFormat::Int4);
    }

    #[test]
    fn empty_vector_rejected() {
        assert!(QuantizedVector::quantize(&[], QuantFormat::Int8).is_err());
    }

    #[test]
    fn zero_vector_round_trips() {
        let values = vec![0.0; 8];
        let q = QuantizedVector::quantize(&values, QuantFormat::Int8).unwrap();
        assert_eq!(q.dequantize(), values);
    }

    #[test]
    fn matrix_quantization_per_row_scales() {
        let m = Matrix::from_rows(vec![vec![0.01, -0.02, 0.03], vec![10.0, -20.0, 30.0]]).unwrap();
        let q = QuantizedMatrix::quantize(&m, QuantFormat::Int8).unwrap();
        // Per-row scaling keeps both rows accurate despite the magnitude gap.
        assert!(q.reconstruction_error(&m) < 0.2);
        let (small, large) = (q.row_vectors[0].dequantize(), q.row_vectors[1].dequantize());
        assert!((small[2] - 0.03).abs() < 0.001);
        assert!((large[2] - 30.0).abs() < 0.5);
    }
}
