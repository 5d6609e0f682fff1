//! The surrogate decoder stack.
//!
//! [`SurrogateModel`] composes the embedding table, a stack of
//! [`DecoderLayer`]s (pre-norm attention + gated-MLP FFN, the Llama-style
//! block structure described in §2.1) and a tied LM head.  All KV-cache
//! traffic goes through the [`KvCacheBackend`] passed by the caller, and all
//! cache reads pass through the [`FaultInjector`], so accuracy experiments can
//! swap policies and corruption models without touching the model code.
//!
//! Each level has one forward body (`DecoderLayer::forward_with`,
//! `SurrogateModel::forward_token_with`): it mutates the residual stream in
//! place and stages every intermediate in a caller-owned [`DecodeScratch`],
//! so steady-state decoding allocates nothing.  The model's body is its
//! layers followed by the LM head; a prompt token whose logits nobody reads
//! runs the layers alone.

use crate::attention::{DecodeScratch, MultiHeadAttention};
use crate::cache::{KvCacheBackend, TokenId};
use crate::config::{ModelConfig, SurrogateDims};
use crate::fault::FaultInjector;
use crate::weights::{LayerWeights, ModelWeights, WeightGenConfig};
use kelle_tensor::ops;

/// A single decoder layer: pre-norm self-attention followed by a pre-norm
/// gated-MLP FFN, both with residual connections.
#[derive(Debug)]
pub(crate) struct DecoderLayer<'w> {
    weights: &'w LayerWeights,
    heads: usize,
}

impl<'w> DecoderLayer<'w> {
    /// Binds a layer to its weights.
    pub(crate) fn new(weights: &'w LayerWeights, heads: usize) -> Self {
        DecoderLayer { weights, heads }
    }

    /// Runs the layer for one token through the reusable `scratch`, updating
    /// the residual stream `hidden` in place.
    ///
    /// Returns `(recomputed_entries, kv_entries_read)`; the per-head
    /// attention labels of the step remain available in
    /// [`DecodeScratch::attention_labels`].
    #[allow(clippy::too_many_arguments)] // the decode-step contract: position + data + 3 collaborators
    pub(crate) fn forward_with(
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
}

/// Aggregate per-token forward-pass statistics across all layers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ForwardStats {
    /// Total recomputed cache entries across layers.
    pub(crate) recomputed_entries: usize,
    /// Total KV entries read across layers.
    pub(crate) kv_entries_read: usize,
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
    pub(crate) fn forward_token_with(
        &self,
        token: usize,
        position: usize,
        cache: &mut dyn KvCacheBackend,
        faults: &mut dyn FaultInjector,
        scratch: &mut DecodeScratch,
    ) -> ForwardStats {
        let stats = self.forward_layers_with(token, position, cache, faults, scratch);
        self.lm_head_with(scratch);
        stats
    }

    /// [`forward_token_with`](Self::forward_token_with) up to the last
    /// layer: the token's residual stream is left in the scratch, and no
    /// logits are computed.  A prompt token whose logits nobody reads stops
    /// here.
    pub(crate) fn forward_layers_with(
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
        scratch.hidden = hidden;
        stats
    }

    /// The final norm and the tied LM head over the residual stream
    /// [`forward_layers_with`](Self::forward_layers_with) left in the
    /// scratch, into [`DecodeScratch::logits`].
    pub(crate) fn lm_head_with(&self, scratch: &mut DecodeScratch) {
        ops::rms_norm_into(
            &scratch.hidden,
            &self.weights.final_norm,
            1e-5,
            &mut scratch.normed,
        );
        self.weights
            .embedding
            .matvec_into(&scratch.normed, &mut scratch.logits)
            .expect("hidden state matches channel dimension");
    }

    /// Greedy next-token choice from logits.
    pub(crate) fn argmax(logits: &[f32]) -> usize {
        logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Softmax distribution over the vocabulary from logits.
    pub(crate) fn probabilities(logits: &[f32]) -> Vec<f32> {
        ops::softmax(logits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheBudget, CachePolicy};
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

    /// The logits after feeding `tokens` at positions `0..` through a fresh
    /// full cache.
    fn last_logits(model: &SurrogateModel, tokens: &[usize]) -> Vec<f32> {
        let mut cache = CachePolicy::Full.build(CacheBudget::new(usize::MAX), model.dims().heads);
        let mut faults = NoFaults;
        let mut scratch = DecodeScratch::new();
        for (pos, &tok) in tokens.iter().enumerate() {
            model.forward_token_with(tok, pos, &mut *cache, &mut faults, &mut scratch);
        }
        scratch.logits.to_vec()
    }

    #[test]
    fn forward_produces_vocab_sized_logits() {
        let model = SurrogateModel::new(small_config(), 9);
        let mut cache = CachePolicy::Full.build(CacheBudget::new(usize::MAX), model.dims().heads);
        let mut faults = NoFaults;
        let mut scratch = DecodeScratch::new();
        let stats = model.forward_token_with(5, 0, &mut *cache, &mut faults, &mut scratch);
        assert_eq!(scratch.logits.len(), 96);
        assert_eq!(stats.kv_entries_read, 2 * 4); // layers * heads, one token each
        assert!(scratch.logits.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn forward_is_deterministic() {
        let model = SurrogateModel::new(small_config(), 9);
        let tokens = [3, 17, 42, 8];
        assert_eq!(last_logits(&model, &tokens), last_logits(&model, &tokens));
    }

    #[test]
    fn different_prefixes_give_different_logits() {
        let model = SurrogateModel::new(small_config(), 9);
        assert_ne!(
            last_logits(&model, &[1, 2, 3, 4]),
            last_logits(&model, &[9, 8, 7, 4])
        );
    }

    #[test]
    fn cache_grows_with_sequence() {
        let model = SurrogateModel::new(small_config(), 9);
        let mut cache = CachePolicy::Full.build(CacheBudget::new(usize::MAX), model.dims().heads);
        let mut faults = NoFaults;
        let mut scratch = DecodeScratch::new();
        for pos in 0..6 {
            model.forward_token_with(pos, pos, &mut *cache, &mut faults, &mut scratch);
        }
        // 2 layers * 4 heads * 6 tokens
        assert_eq!(cache.stats().kv_entries, 48);
    }

    #[test]
    fn argmax_and_probabilities() {
        let logits = vec![0.1, 2.0, -1.0];
        assert_eq!(SurrogateModel::argmax(&logits), 1);
        let probs = SurrogateModel::probabilities(&logits);
        assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }
}
