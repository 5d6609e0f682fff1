//! The surrogate decoder stack.
//!
//! [`SurrogateModel`] composes the embedding table, a stack of
//! [`DecoderLayer`]s (pre-norm attention + gated-MLP FFN, the Llama-style
//! block structure described in §2.1) and a tied LM head.  All KV-cache
//! traffic goes through the [`KvCacheBackend`] passed by the caller, and all
//! cache reads pass through the [`FaultInjector`], so accuracy experiments can
//! swap policies and corruption models without touching the model code.
//!
//! The hot entry points ([`DecoderLayer::forward_with`],
//! [`SurrogateModel::forward_token_with`]) mutate the residual stream in
//! place and stage every intermediate in a caller-owned [`DecodeScratch`], so
//! steady-state decoding allocates nothing.  The `*_via_entries` variants
//! preserve the historical allocate-everything implementation as the bitwise
//! reference (see [`crate::attention`]).

use crate::attention::{DecodeScratch, MultiHeadAttention};
use crate::cache::{KvCacheBackend, TokenId};
use crate::config::{ModelConfig, SurrogateDims};
use crate::fault::FaultInjector;
use crate::weights::{LayerWeights, ModelWeights, WeightGenConfig};
use kelle_tensor::ops;

/// A single decoder layer: pre-norm self-attention followed by a pre-norm
/// gated-MLP FFN, both with residual connections.
#[derive(Debug)]
pub struct DecoderLayer<'w> {
    weights: &'w LayerWeights,
    heads: usize,
}

impl<'w> DecoderLayer<'w> {
    /// Binds a layer to its weights.
    pub fn new(weights: &'w LayerWeights, heads: usize) -> Self {
        DecoderLayer { weights, heads }
    }

    /// Runs the layer for one token through the reusable `scratch`, updating
    /// the residual stream `hidden` in place.
    ///
    /// Returns `(recomputed_entries, kv_entries_read)`; the per-head
    /// attention labels of the step remain available in
    /// [`DecodeScratch::attention_labels`].
    #[allow(clippy::too_many_arguments)] // the decode-step contract: position + data + 3 collaborators
    pub fn forward_with(
        &self,
        layer_index: usize,
        token: TokenId,
        position: usize,
        hidden: &mut [f32],
        cache: &mut dyn KvCacheBackend,
        faults: &mut dyn FaultInjector,
        scratch: &mut DecodeScratch,
    ) -> (usize, usize) {
        let attn = MultiHeadAttention::new(self.weights, self.heads);

        // `normed` is taken out of the scratch for the duration of the
        // attention call (which needs `&mut scratch` alongside the normalized
        // input) and restored afterwards; the buffer itself is reused across
        // steps either way.
        let mut normed = std::mem::take(&mut scratch.normed);
        ops::rms_norm_into(hidden, &self.weights.attn_norm, 1e-5, &mut normed);
        let counters = attn.forward_with(
            layer_index,
            token,
            position,
            &normed,
            cache,
            faults,
            scratch,
        );
        for (r, a) in hidden.iter_mut().zip(scratch.attn_out.iter()) {
            *r += a;
        }

        ops::rms_norm_into(hidden, &self.weights.ffn_norm, 1e-5, &mut normed);
        self.weights
            .w_gate
            .matvec_into(&normed, &mut scratch.gate)
            .expect("ffn input matches channel dimension");
        self.weights
            .w_up
            .matvec_into(&normed, &mut scratch.up)
            .expect("ffn input matches channel dimension");
        for (g, u) in scratch.gate.iter_mut().zip(scratch.up.iter()) {
            *g = ops::silu(*g) * u;
        }
        self.weights
            .w_down
            .matvec_into(&scratch.gate, &mut scratch.ffn)
            .expect("gated activation matches ffn dimension");
        for (r, d) in hidden.iter_mut().zip(scratch.ffn.iter()) {
            *r += d;
        }
        scratch.normed = normed;

        counters
    }

    /// Runs the layer for one token, reading and updating the KV cache.
    ///
    /// Returns the residual-stream output and the per-head attention
    /// probabilities (for importance tracking by callers that need them).
    /// Allocating convenience wrapper over
    /// [`forward_with`](DecoderLayer::forward_with).
    pub fn forward(
        &self,
        layer_index: usize,
        token: TokenId,
        position: usize,
        hidden: &[f32],
        cache: &mut dyn KvCacheBackend,
        faults: &mut dyn FaultInjector,
    ) -> LayerStep {
        let mut scratch = DecodeScratch::new();
        let mut out = hidden.to_vec();
        let (recomputed_entries, kv_entries_read) = self.forward_with(
            layer_index,
            token,
            position,
            &mut out,
            cache,
            faults,
            &mut scratch,
        );
        LayerStep {
            hidden: out,
            attention: scratch.attention,
            recomputed_entries,
            kv_entries_read,
        }
    }

    /// The historical allocate-everything layer forward, driving attention
    /// through the materializing [`entries`](KvCacheBackend::entries)
    /// adapter.  Reference implementation for equivalence tests and the
    /// decode benchmark baseline.
    pub fn forward_via_entries(
        &self,
        layer_index: usize,
        token: TokenId,
        position: usize,
        hidden: &[f32],
        cache: &mut dyn KvCacheBackend,
        faults: &mut dyn FaultInjector,
    ) -> LayerStep {
        let normed = ops::rms_norm(hidden, &self.weights.attn_norm, 1e-5);
        let attn = MultiHeadAttention::new(self.weights, self.heads);
        let attn_out =
            attn.forward_via_entries(layer_index, token, position, &normed, cache, faults);

        let mut residual: Vec<f32> = hidden
            .iter()
            .zip(attn_out.output.iter())
            .map(|(h, a)| h + a)
            .collect();

        let ffn_in = ops::rms_norm(&residual, &self.weights.ffn_norm, 1e-5);
        let gate = self
            .weights
            .w_gate
            .matvec(&ffn_in)
            .expect("ffn input matches channel dimension");
        let up = self
            .weights
            .w_up
            .matvec(&ffn_in)
            .expect("ffn input matches channel dimension");
        let gated: Vec<f32> = gate
            .iter()
            .zip(up.iter())
            .map(|(g, u)| ops::silu(*g) * u)
            .collect();
        let down = self
            .weights
            .w_down
            .matvec(&gated)
            .expect("gated activation matches ffn dimension");
        for (r, d) in residual.iter_mut().zip(down.iter()) {
            *r += d;
        }

        LayerStep {
            hidden: residual,
            attention: attn_out.attention,
            recomputed_entries: attn_out.recomputed_entries,
            kv_entries_read: attn_out.kv_entries_read,
        }
    }
}

/// Output of one decoder layer for one token.
#[derive(Debug, Clone)]
pub struct LayerStep {
    /// Residual-stream output.
    pub hidden: Vec<f32>,
    /// Per-head post-softmax attention probabilities.
    pub attention: Vec<Vec<(TokenId, f32)>>,
    /// Cache entries recomputed from stored inputs during this step.
    pub recomputed_entries: usize,
    /// Cache entries read directly as KV vectors during this step.
    pub kv_entries_read: usize,
}

/// Aggregate per-token forward-pass statistics across all layers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForwardStats {
    /// Total recomputed cache entries across layers.
    pub recomputed_entries: usize,
    /// Total KV entries read across layers.
    pub kv_entries_read: usize,
}

/// The complete surrogate model.
#[derive(Debug)]
pub struct SurrogateModel {
    config: ModelConfig,
    weights: ModelWeights,
}

impl SurrogateModel {
    /// Builds a surrogate model for the given configuration, generating
    /// deterministic structured weights from `seed`.
    pub fn new(config: ModelConfig, seed: u64) -> Self {
        let weights = ModelWeights::generate(&config.surrogate, &WeightGenConfig::default(), seed);
        SurrogateModel { config, weights }
    }

    /// Builds a surrogate model with explicit weight-generation options.
    pub fn with_weight_config(config: ModelConfig, gen: &WeightGenConfig, seed: u64) -> Self {
        let weights = ModelWeights::generate(&config.surrogate, gen, seed);
        SurrogateModel { config, weights }
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The surrogate dimensions actually simulated.
    pub fn dims(&self) -> &SurrogateDims {
        &self.config.surrogate
    }

    /// Access to the generated weights (used by tests and by policies that
    /// need the projection matrices for recomputation-cost accounting).
    pub fn weights(&self) -> &ModelWeights {
        &self.weights
    }

    /// Runs the full decoder stack for one token through the reusable
    /// `scratch`, leaving the logits over the surrogate vocabulary in
    /// [`DecodeScratch::logits`] and returning the forward-pass statistics.
    ///
    /// `token` is the vocabulary id of the input token, `position` its
    /// sequence position (which doubles as the [`TokenId`] used by caches).
    /// This is the allocation-free hot path; steady-state decoding performs
    /// no heap allocation inside this call.
    pub fn forward_token_with(
        &self,
        token: usize,
        position: usize,
        cache: &mut dyn KvCacheBackend,
        faults: &mut dyn FaultInjector,
        scratch: &mut DecodeScratch,
    ) -> ForwardStats {
        let dims = &self.config.surrogate;
        let mut hidden = std::mem::take(&mut scratch.hidden);
        self.weights
            .embed_into(token % dims.vocab, position, &mut hidden);
        let mut stats = ForwardStats::default();
        for (layer_index, layer_weights) in self.weights.layers.iter().enumerate() {
            let layer = DecoderLayer::new(layer_weights, dims.heads);
            let (recomputed, read) = layer.forward_with(
                layer_index,
                position,
                position,
                &mut hidden,
                cache,
                faults,
                scratch,
            );
            stats.recomputed_entries += recomputed;
            stats.kv_entries_read += read;
        }
        let mut normed = std::mem::take(&mut scratch.normed);
        ops::rms_norm_into(&hidden, &self.weights.final_norm, 1e-5, &mut normed);
        self.weights
            .embedding
            .matvec_into(&normed, &mut scratch.logits)
            .expect("hidden state matches channel dimension");
        scratch.normed = normed;
        scratch.hidden = hidden;
        stats
    }

    /// Runs the full decoder stack for one token and returns the logits over
    /// the surrogate vocabulary plus forward-pass statistics.
    ///
    /// Allocating convenience wrapper over
    /// [`forward_token_with`](SurrogateModel::forward_token_with); resumable
    /// callers hold a [`DecodeScratch`] (via
    /// [`GenerationState`](crate::generation::GenerationState)) instead.
    pub fn forward_token(
        &self,
        token: usize,
        position: usize,
        cache: &mut dyn KvCacheBackend,
        faults: &mut dyn FaultInjector,
    ) -> (Vec<f32>, ForwardStats) {
        let mut scratch = DecodeScratch::new();
        let stats = self.forward_token_with(token, position, cache, faults, &mut scratch);
        (scratch.logits, stats)
    }

    /// The historical allocate-everything forward pass through the
    /// materializing entries adapter; reference for equivalence tests and the
    /// decode benchmark baseline.
    pub fn forward_token_via_entries(
        &self,
        token: usize,
        position: usize,
        cache: &mut dyn KvCacheBackend,
        faults: &mut dyn FaultInjector,
    ) -> (Vec<f32>, ForwardStats) {
        let dims = &self.config.surrogate;
        let mut hidden = self.weights.embed(token % dims.vocab, position);
        let mut stats = ForwardStats::default();
        for (layer_index, layer_weights) in self.weights.layers.iter().enumerate() {
            let layer = DecoderLayer::new(layer_weights, dims.heads);
            let step =
                layer.forward_via_entries(layer_index, position, position, &hidden, cache, faults);
            hidden = step.hidden;
            stats.recomputed_entries += step.recomputed_entries;
            stats.kv_entries_read += step.kv_entries_read;
        }
        let final_hidden = ops::rms_norm(&hidden, &self.weights.final_norm, 1e-5);
        let logits = self
            .weights
            .embedding
            .matvec(&final_hidden)
            .expect("hidden state matches channel dimension");
        (logits, stats)
    }

    /// Greedy next-token choice from logits.
    pub fn argmax(logits: &[f32]) -> usize {
        logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Softmax distribution over the vocabulary from logits.
    pub fn probabilities(logits: &[f32]) -> Vec<f32> {
        ops::softmax(logits)
    }

    /// [`probabilities`](SurrogateModel::probabilities) into a caller-owned
    /// buffer (cleared and refilled), for callers that consume the
    /// distribution in place — e.g. throughput measurement loops that would
    /// otherwise pay one vocabulary-sized allocation per decoded token.
    pub fn probabilities_into(logits: &[f32], out: &mut Vec<f32>) {
        out.clear();
        out.extend_from_slice(logits);
        ops::softmax_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::FullKvCache;
    use crate::config::{ModelKind, SurrogateDims};
    use crate::fault::NoFaults;

    fn small_config() -> ModelConfig {
        ModelConfig::for_kind(ModelKind::Llama2_7b).with_surrogate(SurrogateDims {
            layers: 2,
            heads: 4,
            channels: 32,
            ffn_dim: 64,
            vocab: 96,
        })
    }

    #[test]
    fn forward_produces_vocab_sized_logits() {
        let model = SurrogateModel::new(small_config(), 9);
        let mut cache = FullKvCache::new();
        let mut faults = NoFaults;
        let (logits, stats) = model.forward_token(5, 0, &mut cache, &mut faults);
        assert_eq!(logits.len(), 96);
        assert_eq!(stats.kv_entries_read, 2 * 4); // layers * heads, one token each
        assert!(logits.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn forward_is_deterministic() {
        let model = SurrogateModel::new(small_config(), 9);
        let run = || {
            let mut cache = FullKvCache::new();
            let mut faults = NoFaults;
            let mut last = Vec::new();
            for (pos, tok) in [3usize, 17, 42, 8].iter().enumerate() {
                let (logits, _) = model.forward_token(*tok, pos, &mut cache, &mut faults);
                last = logits;
            }
            last
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_prefixes_give_different_logits() {
        let model = SurrogateModel::new(small_config(), 9);
        let run = |prefix: &[usize]| {
            let mut cache = FullKvCache::new();
            let mut faults = NoFaults;
            let mut last = Vec::new();
            for (pos, tok) in prefix.iter().enumerate() {
                let (logits, _) = model.forward_token(*tok, pos, &mut cache, &mut faults);
                last = logits;
            }
            last
        };
        let a = run(&[1, 2, 3, 4]);
        let b = run(&[9, 8, 7, 4]);
        assert_ne!(a, b);
    }

    #[test]
    fn cache_grows_with_sequence() {
        let model = SurrogateModel::new(small_config(), 9);
        let mut cache = FullKvCache::new();
        let mut faults = NoFaults;
        for pos in 0..6 {
            model.forward_token(pos, pos, &mut cache, &mut faults);
        }
        // 2 layers * 4 heads * 6 tokens
        assert_eq!(cache.stats().kv_entries, 48);
    }

    #[test]
    fn scratch_path_matches_via_entries_bitwise() {
        let model = SurrogateModel::new(small_config(), 9);
        let tokens = [3usize, 17, 42, 8, 61];
        let run = |fused: bool| -> Vec<u32> {
            let mut cache = FullKvCache::new();
            let mut faults = NoFaults;
            let mut scratch = DecodeScratch::new();
            let mut last = Vec::new();
            for (pos, tok) in tokens.iter().enumerate() {
                if fused {
                    model.forward_token_with(*tok, pos, &mut cache, &mut faults, &mut scratch);
                    last = scratch.logits().to_vec();
                } else {
                    last = model
                        .forward_token_via_entries(*tok, pos, &mut cache, &mut faults)
                        .0;
                }
            }
            last.iter().map(|f| f.to_bits()).collect()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn argmax_and_probabilities() {
        let logits = vec![0.1, 2.0, -1.0];
        assert_eq!(SurrogateModel::argmax(&logits), 1);
        let probs = SurrogateModel::probabilities(&logits);
        assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }
}
