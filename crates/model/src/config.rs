//! Model architecture configurations.
//!
//! [`ModelConfig`] carries two sets of dimensions:
//!
//! * the **published** architecture of the evaluated model (layers, heads,
//!   channel size, FFN width, vocabulary) — consumed by the *hardware* model in
//!   `kelle-arch` to compute weight sizes, KV-cache footprints, MAC counts and
//!   memory traffic exactly as the real model would generate them;
//! * the **surrogate** dimensions used by the *functional* model in this crate —
//!   a scaled-down decoder whose per-head attention statistics are shaped to
//!   match the published model's behaviour (heavy-tailed scores, attention
//!   sinks), used for accuracy-style experiments (Tables 2–6, Fig. 8).
//!
//! Keeping both in one struct guarantees that the accuracy and the performance
//! experiments agree about which model they are talking about.

use std::fmt;

/// Identifies one of the LLM architectures used in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ModelKind {
    /// LLaMA-2 7B.
    Llama2_7b,
    /// LLaMA-2 13B.
    Llama2_13b,
    /// LLaMA-2 70B (used in the motivation study, Fig. 4 context).
    Llama2_70b,
    /// LLaMA-3 8B.
    Llama3_8b,
    /// LLaMA-3.2 3B.
    Llama3_2_3b,
    /// Mistral 7B.
    Mistral7b,
    /// Qwen2 7B.
    Qwen2_7b,
    /// OPT 6.7B.
    Opt6_7b,
}

impl ModelKind {
    /// Human-readable name matching the paper's tables.
    pub(crate) fn name(self) -> &'static str {
        match self {
            ModelKind::Llama2_7b => "LLaMA2-7B",
            ModelKind::Llama2_13b => "LLaMA2-13B",
            ModelKind::Llama2_70b => "LLaMA2-70B",
            ModelKind::Llama3_8b => "LLaMA3-8B",
            ModelKind::Llama3_2_3b => "LLaMA3.2-3B",
            ModelKind::Mistral7b => "Mistral-7B",
            ModelKind::Qwen2_7b => "QWEN2-7B",
            ModelKind::Opt6_7b => "OPT-6.7B",
        }
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Scaled-down dimensions used by the functional surrogate model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SurrogateDims {
    /// Number of decoder layers simulated functionally.
    pub layers: usize,
    /// Number of attention heads.
    pub heads: usize,
    /// Channel (model) dimension; must be divisible by `heads`.
    pub channels: usize,
    /// FFN inner dimension.
    pub ffn_dim: usize,
    /// Vocabulary size of the surrogate token space.
    pub vocab: usize,
}

impl SurrogateDims {
    /// Per-head channel dimension.
    pub fn head_dim(&self) -> usize {
        self.channels / self.heads
    }
}

impl Default for SurrogateDims {
    fn default() -> Self {
        SurrogateDims {
            layers: 4,
            heads: 8,
            channels: 64,
            ffn_dim: 172,
            vocab: 512,
        }
    }
}

/// Which FFN flavour the model family uses (affects MAC counts and weight size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum FfnKind {
    /// Standard two-matrix MLP (`up`, `down`) as in GPT/OPT.
    Mlp,
    /// Gated MLP with three matrices (`gate`, `up`, `down`) as in Llama/Mistral.
    GatedMlp,
}

/// The full architecture description of an evaluated model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Which published model this configuration corresponds to.
    pub(crate) kind: ModelKind,
    /// Number of transformer decoder layers.
    pub layers: usize,
    /// Number of attention (query) heads.
    pub heads: usize,
    /// Number of key/value heads (grouped-query attention when < `heads`).
    pub kv_heads: usize,
    /// Model (channel) dimension `C`.
    pub channels: usize,
    /// FFN inner dimension.
    pub ffn_dim: usize,
    /// Vocabulary size.
    pub(crate) vocab: usize,
    /// FFN flavour.
    pub(crate) ffn_kind: FfnKind,
    /// Number of parameters, in billions (for reporting only).
    pub(crate) params_billion: f64,
    /// Surrogate dimensions used by the functional model.
    pub surrogate: SurrogateDims,
}

impl ModelConfig {
    /// Returns the configuration for a published model.
    pub fn for_kind(kind: ModelKind) -> Self {
        let surrogate = SurrogateDims::default();
        match kind {
            ModelKind::Llama2_7b => ModelConfig {
                kind,
                layers: 32,
                heads: 32,
                kv_heads: 32,
                channels: 4096,
                ffn_dim: 11_008,
                vocab: 32_000,
                ffn_kind: FfnKind::GatedMlp,
                params_billion: 6.7,
                surrogate,
            },
            ModelKind::Llama2_13b => ModelConfig {
                kind,
                layers: 40,
                heads: 40,
                kv_heads: 40,
                channels: 5120,
                ffn_dim: 13_824,
                vocab: 32_000,
                ffn_kind: FfnKind::GatedMlp,
                params_billion: 13.0,
                surrogate,
            },
            ModelKind::Llama2_70b => ModelConfig {
                kind,
                layers: 80,
                heads: 64,
                kv_heads: 8,
                channels: 8192,
                ffn_dim: 28_672,
                vocab: 32_000,
                ffn_kind: FfnKind::GatedMlp,
                params_billion: 69.0,
                surrogate,
            },
            ModelKind::Llama3_8b => ModelConfig {
                kind,
                layers: 32,
                heads: 32,
                kv_heads: 8,
                channels: 4096,
                ffn_dim: 14_336,
                vocab: 128_256,
                ffn_kind: FfnKind::GatedMlp,
                params_billion: 8.0,
                surrogate,
            },
            ModelKind::Llama3_2_3b => ModelConfig {
                kind,
                layers: 28,
                heads: 24,
                kv_heads: 8,
                channels: 3072,
                ffn_dim: 8192,
                vocab: 128_256,
                ffn_kind: FfnKind::GatedMlp,
                params_billion: 3.2,
                surrogate,
            },
            ModelKind::Mistral7b => ModelConfig {
                kind,
                layers: 32,
                heads: 32,
                kv_heads: 8,
                channels: 4096,
                ffn_dim: 14_336,
                vocab: 32_000,
                ffn_kind: FfnKind::GatedMlp,
                params_billion: 7.2,
                surrogate,
            },
            ModelKind::Qwen2_7b => ModelConfig {
                kind,
                layers: 28,
                heads: 28,
                kv_heads: 4,
                channels: 3584,
                ffn_dim: 18_944,
                vocab: 152_064,
                ffn_kind: FfnKind::GatedMlp,
                params_billion: 7.6,
                surrogate,
            },
            ModelKind::Opt6_7b => ModelConfig {
                kind,
                layers: 32,
                heads: 32,
                kv_heads: 32,
                channels: 4096,
                ffn_dim: 16_384,
                vocab: 50_272,
                ffn_kind: FfnKind::Mlp,
                params_billion: 6.7,
                surrogate,
            },
        }
    }

    /// Overrides the surrogate dimensions (builder style).
    pub fn with_surrogate(mut self, surrogate: SurrogateDims) -> Self {
        self.surrogate = surrogate;
        self
    }

    /// Per-head channel dimension `C / H` of the published model.
    pub fn head_dim(&self) -> usize {
        self.channels / self.heads
    }

    /// Bytes of KV cache added per generated token per layer, for a given
    /// per-element size in bits (e.g. 16 for FP16, 4 for QuaRot KV4).
    ///
    /// One token contributes a key and a value vector of `kv_heads * head_dim`
    /// elements each.
    pub(crate) fn kv_bytes_per_token_per_layer(&self, bits_per_element: u32) -> usize {
        let elements = 2 * self.kv_heads * self.head_dim();
        (elements * bits_per_element as usize).div_ceil(8)
    }

    /// Bytes of KV cache for `tokens` tokens across all layers.
    pub fn kv_bytes_total(&self, tokens: usize, bits_per_element: u32) -> usize {
        self.kv_bytes_per_token_per_layer(bits_per_element) * self.layers * tokens
    }

    /// Total number of weight parameters in the decoder stack (excluding
    /// embeddings), used for weight-traffic modelling.
    pub fn decoder_weight_params(&self) -> u64 {
        let c = self.channels as u64;
        let head_dim = self.head_dim() as u64;
        let kv_c = self.kv_heads as u64 * head_dim;
        let attn = c * c /* W_Q */ + c * kv_c /* W_K */ + c * kv_c /* W_V */ + c * c /* W_O */;
        let ffn = match self.ffn_kind {
            FfnKind::Mlp => 2 * c * self.ffn_dim as u64,
            FfnKind::GatedMlp => 3 * c * self.ffn_dim as u64,
        };
        (attn + ffn) * self.layers as u64
    }

    /// MAC operations for a single decoding step at sequence position `n`
    /// (context of `n` cached tokens), counting the attention projections,
    /// the score/value products against the cache and the FFN.
    pub fn decode_macs(&self, cached_tokens: usize) -> u64 {
        let c = self.channels as u64;
        let head_dim = self.head_dim() as u64;
        let kv_c = self.kv_heads as u64 * head_dim;
        let proj = c * c + 2 * c * kv_c + c * c;
        let attn = 2 * self.heads as u64 * head_dim * cached_tokens as u64;
        let ffn = match self.ffn_kind {
            FfnKind::Mlp => 2 * c * self.ffn_dim as u64,
            FfnKind::GatedMlp => 3 * c * self.ffn_dim as u64,
        };
        (proj + attn + ffn) * self.layers as u64
    }

    /// MAC operations for pre-filling `context` tokens (processed in parallel).
    pub fn prefill_macs(&self, context: usize) -> u64 {
        let c = self.channels as u64;
        let head_dim = self.head_dim() as u64;
        let kv_c = self.kv_heads as u64 * head_dim;
        let n = context as u64;
        let proj = n * (2 * c * c + 2 * c * kv_c);
        // Causal attention: ~n^2/2 score and value MACs per head.
        let attn = self.heads as u64 * head_dim * n * n;
        let ffn = match self.ffn_kind {
            FfnKind::Mlp => 2 * n * c * self.ffn_dim as u64,
            FfnKind::GatedMlp => 3 * n * c * self.ffn_dim as u64,
        };
        (proj + attn + ffn) * self.layers as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llama2_7b_kv_footprint_matches_paper() {
        // §1: LLaMA2-7B with sequence length 8192 in FP16 has a 4 GB KV cache.
        let cfg = ModelConfig::for_kind(ModelKind::Llama2_7b);
        let bytes = cfg.kv_bytes_total(8192, 16);
        let gib = bytes as f64 / (1024.0 * 1024.0 * 1024.0);
        assert!((gib - 4.0).abs() < 0.1, "got {gib} GiB");
    }

    #[test]
    fn llama2_7b_weight_count_is_about_7b() {
        let cfg = ModelConfig::for_kind(ModelKind::Llama2_7b);
        let params = cfg.decoder_weight_params() as f64 / 1e9;
        assert!(params > 6.0 && params < 7.5, "got {params}B params");
    }

    #[test]
    fn weight_bytes_8bit_fits_claim() {
        // §8.4.1: 8-bit weights occupy ~6.5 GB of DRAM for LLaMA2-7B.
        let cfg = ModelConfig::for_kind(ModelKind::Llama2_7b);
        let gib = cfg.decoder_weight_params() as f64 / (1024.0 * 1024.0 * 1024.0);
        assert!(gib > 5.5 && gib < 7.0, "got {gib} GiB");
    }

    #[test]
    fn gqa_models_have_smaller_kv() {
        let llama2 = ModelConfig::for_kind(ModelKind::Llama2_7b);
        let llama3 = ModelConfig::for_kind(ModelKind::Llama3_8b);
        assert!(llama3.kv_bytes_per_token_per_layer(16) < llama2.kv_bytes_per_token_per_layer(16));
    }

    #[test]
    fn decode_macs_grow_with_context() {
        let cfg = ModelConfig::for_kind(ModelKind::Llama2_7b);
        assert!(cfg.decode_macs(4096) > cfg.decode_macs(128));
    }

    #[test]
    fn prefill_macs_superlinear_in_context() {
        let cfg = ModelConfig::for_kind(ModelKind::Llama2_7b);
        let m1 = cfg.prefill_macs(512) as f64;
        let m2 = cfg.prefill_macs(1024) as f64;
        assert!(m2 > 2.0 * m1);
    }

    #[test]
    fn all_models_have_consistent_head_dims() {
        for kind in [
            ModelKind::Llama2_7b,
            ModelKind::Llama2_13b,
            ModelKind::Llama2_70b,
            ModelKind::Llama3_8b,
            ModelKind::Llama3_2_3b,
            ModelKind::Mistral7b,
            ModelKind::Qwen2_7b,
            ModelKind::Opt6_7b,
        ] {
            let cfg = ModelConfig::for_kind(kind);
            assert_eq!(cfg.channels % cfg.heads, 0, "{kind}");
            assert_eq!(cfg.heads % cfg.kv_heads, 0, "{kind}");
            assert_eq!(cfg.surrogate.channels % cfg.surrogate.heads, 0, "{kind}");
        }
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(ModelKind::Llama2_7b.to_string(), "LLaMA2-7B");
        assert_eq!(ModelKind::Qwen2_7b.to_string(), "QWEN2-7B");
    }

    #[test]
    fn surrogate_head_dim() {
        let d = SurrogateDims::default();
        assert_eq!(d.head_dim() * d.heads, d.channels);
    }
}
