//! # kelle-tensor
//!
//! Numeric substrate for the Kelle reproduction: dense row-major matrices and
//! vectors, the non-linear operations used by transformer decoders (softmax,
//! SiLU, RMSNorm, RoPE), bit-exact FP16 encode/decode (so that retention-failure
//! bit flips can be injected into stored words), INT8/INT4 quantization
//! emulation, and deterministic random-number utilities used to build the
//! surrogate LLM and the synthetic workloads.
//!
//! The crate deliberately avoids SIMD/BLAS dependencies: the evaluation of the
//! paper is dominated by the analytical hardware model, and the functional
//! model only needs to be *correct* and reproducible, not fast.
//!
//! ## Example
//!
//! ```rust
//! use kelle_tensor::{Matrix, ops};
//!
//! # fn main() -> Result<(), kelle_tensor::TensorError> {
//! let a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]])?;
//! let mut out = Vec::new();
//! a.matvec_into(&[1.0, -1.0], &mut out)?;
//! assert_eq!(out, vec![-1.0, -1.0]);
//! let probs = ops::softmax(&[1.0, 2.0, 3.0]);
//! assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
pub mod fp16;
mod matrix;
pub mod ops;
pub mod quant;
pub mod rng;

pub use error::TensorError;
pub use matrix::{dot, dot_rows_into, Matrix, DOT_LANES};
pub use quant::{QuantFormat, QuantizedMatrix, QuantizedVector};

/// Crate-wide result alias.
pub(crate) type Result<T> = std::result::Result<T, TensorError>;
