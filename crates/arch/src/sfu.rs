//! The special-function unit (SFU, §5).
//!
//! Non-linear operations — softmax (Softermax-style online max), activation
//! functions, normalization and positional embeddings — are handled by a
//! LUT-based SFU.  Their cost grows with the number of elements processed,
//! which for the attention softmax means the current context length.

/// Cost model of the LUT-based special-function unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecialFunctionUnit {
    /// Elements processed per second (softmax/normalization throughput).
    pub(crate) elements_per_s: f64,
    /// Energy per processed element in joules.
    pub(crate) energy_per_element_j: f64,
    /// Idle/leakage power in watts.
    pub(crate) leakage_w: f64,
}

impl SpecialFunctionUnit {
    /// The Kelle SFU: sized to its reported 7 % area / 13 % power share of the
    /// 6.52 W accelerator, processing 16 elements per cycle at 1 GHz.
    pub(crate) fn kelle_default() -> Self {
        SpecialFunctionUnit {
            elements_per_s: 16.0e9,
            energy_per_element_j: 3.0e-12,
            leakage_w: 0.05,
        }
    }

    /// Number of SFU elements processed in one decoding step: the softmax over
    /// `context` attention scores for each of `heads` heads and the
    /// normalization/activation work proportional to the channel and FFN
    /// dimensions.
    pub(crate) fn elements_per_decode_step(
        &self,
        context: usize,
        heads: usize,
        channels: usize,
        ffn_dim: usize,
    ) -> u64 {
        (heads * context + 2 * channels + ffn_dim) as u64
    }

    /// Time in seconds to process `elements` elements.
    pub(crate) fn time_s(&self, elements: u64) -> f64 {
        elements as f64 / self.elements_per_s
    }

    /// Dynamic energy in joules to process `elements` elements.
    pub(crate) fn energy_j(&self, elements: u64) -> f64 {
        elements as f64 * self.energy_per_element_j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elements_grow_with_context() {
        let sfu = SpecialFunctionUnit::kelle_default();
        let short = sfu.elements_per_decode_step(128, 32, 4096, 11_008);
        let long = sfu.elements_per_decode_step(8192, 32, 4096, 11_008);
        assert!(long > short);
    }

    #[test]
    fn cost_is_linear() {
        let sfu = SpecialFunctionUnit::kelle_default();
        assert!((sfu.time_s(2000) - 2.0 * sfu.time_s(1000)).abs() < 1e-15);
        assert!((sfu.energy_j(2000) - 2.0 * sfu.energy_j(1000)).abs() < 1e-15);
    }

    #[test]
    fn softmax_cost_is_small_relative_to_matmul() {
        // The SFU must not dominate a decode step: 32 heads x 8192 context is
        // ~0.26M elements, i.e. ~16 us -- small next to DRAM weight streaming.
        let sfu = SpecialFunctionUnit::kelle_default();
        let elements = sfu.elements_per_decode_step(8192, 32, 4096, 11_008);
        assert!(sfu.time_s(elements) < 1e-3);
    }
}
