//! Multi-head self-attention over a pluggable KV cache.
//!
//! This module implements the paper's Eq. 1 and Eq. 2 exactly: for the current
//! token's query `q^h_N`, attention scores are the softmax of dot products with
//! every cached key `k^h_n`, and the head output `y^h_N` is the score-weighted
//! sum of cached values `v^h_n`.  The cached entries may arrive in any order
//! (the permutation-invariance property of §2.2 that lets Kelle reuse evicted
//! slots), and an entry may carry either the KV vectors themselves or the
//! token's input vector `x_n`, in which case the key/value are recomputed
//! through `W_K`/`W_V` on the fly (§4.1.2).
//!
//! # The fused, allocation-free pass
//!
//! The hot entry point is [`MultiHeadAttention::forward_with`]: it threads a
//! caller-owned [`DecodeScratch`] through the whole computation and visits the
//! cache through the borrowed [`EntryRef`](crate::cache::EntryRef) API, so a
//! steady-state decode step touches the heap not at all.  Every decode step
//! any serving executor runs goes through it, heads one after another on the
//! session's thread.  Per head it runs:
//!
//! 1. one traversal over the `(layer, head)` arena computing all raw scores
//!    (keys read *by reference* when the fault injector
//!    [`is_noop`](FaultInjector::is_noop); staged through scratch otherwise);
//! 2. [`ops::softmax_into`] in place over the score buffer (the consolidated
//!    online-softmax formulation);
//! 3. one weighted-value accumulation pass (values by reference under
//!    `NoFaults`, from the stash otherwise).
//!
//! The floating-point operation order is identical to the
//! materialize-then-compute algorithm, which is preserved as
//! [`MultiHeadAttention::forward_via_entries`] — the reference the equivalence
//! tests compare against bit for bit, and the allocation-heavy baseline the
//! decode benchmark measures the win over.  (Both paths share the documented
//! multi-accumulator [`dot`](kelle_tensor::dot) ordering, which is where the
//! rewrite's numeric results differ from pre-rewrite binaries.)
//!
//! Retention faults are applied by the [`FaultInjector`] to the *stored*
//! representation at read time: KV vectors for `Kv` entries, the input vector
//! for `Recompute` entries — matching where the bits physically live in eDRAM.
//! The stored bits themselves are never modified; corrupted reads are staged
//! in scratch.

use crate::cache::{EntryPayload, KvCacheBackend, PayloadRef, TokenId};
use crate::fault::{FaultInjector, TokenGroup};
use crate::weights::LayerWeights;
use kelle_tensor::ops;

/// The result of one attention forward pass for a single token.
#[derive(Debug, Clone)]
pub struct AttentionOutput {
    /// The attention block output (after `W_O`), length `channels`.
    pub output: Vec<f32>,
    /// Post-softmax attention probabilities per head, keyed by token id.
    pub attention: Vec<Vec<(TokenId, f32)>>,
    /// Number of cached entries that required KV recomputation this step.
    pub recomputed_entries: usize,
    /// Number of cached entries read as stored KV vectors this step.
    pub kv_entries_read: usize,
}

/// Reusable buffers for the allocation-free decode hot path.
///
/// One instance travels with a generation state
/// ([`GenerationState`](crate::generation::GenerationState) owns one) and is
/// threaded through [`MultiHeadAttention::forward_with`], the decoder layer
/// loop and the LM head.  Every buffer is cleared (`len = 0`) and refilled
/// each step; capacities warm up over the first few steps and then stay put,
/// so steady-state decoding performs zero heap allocation.
#[derive(Debug, Clone, Default)]
pub struct DecodeScratch {
    /// Query projection, length `channels` (RoPE applied per head chunk).
    pub(crate) q: Vec<f32>,
    /// Key projection of the current token, flat head-major.
    pub(crate) k: Vec<f32>,
    /// Value projection of the current token, flat head-major.
    pub(crate) v: Vec<f32>,
    /// Raw scores, then (after `softmax_into`) probabilities, per entry.
    pub(crate) scores: Vec<f32>,
    /// Token ids of the visited entries, parallel to `scores`.
    pub(crate) tokens: Vec<TokenId>,
    /// Staged value vectors (corrupted or recomputed), `head_dim` per staged
    /// entry.
    pub(crate) stash: Vec<f32>,
    /// Per entry: whether its value lives in `stash` (vs. by-ref in the
    /// arena).
    pub(crate) stash_mask: Vec<bool>,
    /// Staging buffer for corrupted key reads, length `head_dim`.
    pub(crate) kbuf: Vec<f32>,
    /// Staging buffer for corrupted stored-input reads, length `channels`.
    pub(crate) xbuf: Vec<f32>,
    /// Recomputed key head-slice of a `Recompute` entry, length `head_dim`.
    pub(crate) rk: Vec<f32>,
    /// Recomputed value head-slice of a `Recompute` entry, length `head_dim`.
    pub(crate) rv: Vec<f32>,
    /// Per-head attention output `y^h`, length `head_dim`.
    pub(crate) yh: Vec<f32>,
    /// Concatenated head outputs, length `channels`.
    pub(crate) concat: Vec<f32>,
    /// Attention block output after `W_O`, length `channels`.
    pub(crate) attn_out: Vec<f32>,
    /// Post-softmax attention labels per head (inner vectors reused).
    pub(crate) attention: Vec<Vec<(TokenId, f32)>>,
    /// Normalized layer input / FFN input staging, length `channels`.
    pub(crate) normed: Vec<f32>,
    /// FFN gate projection, length `ffn_dim`.
    pub(crate) gate: Vec<f32>,
    /// FFN up projection, length `ffn_dim`.
    pub(crate) up: Vec<f32>,
    /// FFN down projection, length `channels`.
    pub(crate) ffn: Vec<f32>,
    /// Residual-stream hidden state, length `channels`.
    pub(crate) hidden: Vec<f32>,
    /// LM-head logits, length `vocab`.
    pub(crate) logits: Vec<f32>,
}

impl DecodeScratch {
    /// Creates an empty scratch; buffers grow to their working sizes during
    /// the first step they are used in.
    pub fn new() -> Self {
        DecodeScratch::default()
    }

    /// The attention block output of the most recent
    /// [`forward_with`](MultiHeadAttention::forward_with) call.
    pub fn output(&self) -> &[f32] {
        &self.attn_out
    }

    /// The per-head post-softmax attention labels of the most recent pass.
    pub fn attention_labels(&self) -> &[Vec<(TokenId, f32)>] {
        &self.attention
    }

    /// The logits of the most recent
    /// [`forward_token_with`](crate::decoder::SurrogateModel::forward_token_with)
    /// call.
    pub fn logits(&self) -> &[f32] {
        &self.logits
    }
}

/// Multi-head attention operator bound to one layer's weights.
#[derive(Debug)]
pub struct MultiHeadAttention<'w> {
    weights: &'w LayerWeights,
    heads: usize,
    head_dim: usize,
    rope_theta: f32,
}

impl<'w> MultiHeadAttention<'w> {
    /// Creates the attention operator for a layer.
    ///
    /// # Panics
    ///
    /// Panics if the weight matrices are not square or not divisible by `heads`.
    pub fn new(weights: &'w LayerWeights, heads: usize) -> Self {
        let channels = weights.wq.rows();
        assert_eq!(weights.wq.shape(), (channels, channels));
        assert_eq!(
            channels % heads,
            0,
            "channels must divide evenly into heads"
        );
        MultiHeadAttention {
            weights,
            heads,
            head_dim: channels / heads,
            rope_theta: 10_000.0,
        }
    }

    /// Number of heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Per-head dimension.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Projects an input vector to per-head keys and values (with RoPE applied
    /// to the keys), as used both for insertion and for recomputation.
    ///
    /// The result is laid out head-major as flat `channels`-length vectors:
    /// head `h` owns elements `[h·head_dim, (h+1)·head_dim)` — the layout the
    /// cache [`insert`](KvCacheBackend::insert) contract expects.
    pub fn project_kv(&self, x: &[f32], position: usize) -> (Vec<f32>, Vec<f32>) {
        let mut k = Vec::new();
        let mut v = Vec::new();
        self.project_kv_into(x, position, &mut k, &mut v);
        (k, v)
    }

    /// [`project_kv`](MultiHeadAttention::project_kv) into caller-owned
    /// buffers (cleared and refilled).
    pub fn project_kv_into(&self, x: &[f32], position: usize, k: &mut Vec<f32>, v: &mut Vec<f32>) {
        self.weights
            .wk
            .matvec_into(x, k)
            .expect("input length matches channel dimension");
        self.weights
            .wv
            .matvec_into(x, v)
            .expect("input length matches channel dimension");
        for kh in k.chunks_exact_mut(self.head_dim) {
            ops::apply_rope(kh, position, self.rope_theta);
        }
    }

    /// Runs one decoding-step attention forward pass through the reusable
    /// `scratch`, leaving the block output in [`DecodeScratch::output`] and
    /// the per-head labels in [`DecodeScratch::attention_labels`].
    ///
    /// `x` is the normalized layer input for the current token at sequence
    /// position `position`; the current token is inserted into `cache` before
    /// attending, so it always attends at least to itself.  Returns
    /// `(recomputed_entries, kv_entries_read)`.
    ///
    /// This is the allocation-free hot path: cache entries are visited as
    /// borrowed [`EntryRef`](crate::cache::EntryRef) views, and when
    /// `faults.is_noop()` keys and values are consumed directly from the
    /// storage arenas with zero copies.
    #[allow(clippy::too_many_arguments)] // the decode-step contract: position + data + 3 collaborators
    pub fn forward_with(
        &self,
        layer: usize,
        token: TokenId,
        position: usize,
        x: &[f32],
        cache: &mut dyn KvCacheBackend,
        faults: &mut dyn FaultInjector,
        scratch: &mut DecodeScratch,
    ) -> (usize, usize) {
        let hd = self.head_dim;

        self.weights
            .wq
            .matvec_into(x, &mut scratch.q)
            .expect("input length matches channel dimension");
        for qh in scratch.q.chunks_exact_mut(hd) {
            ops::apply_rope(qh, position, self.rope_theta);
        }
        self.project_kv_into(x, position, &mut scratch.k, &mut scratch.v);

        cache.insert(layer, token, x, &scratch.k, &scratch.v, hd);

        scratch.concat.clear();
        scratch.concat.resize(self.heads * hd, 0.0);
        if scratch.attention.len() != self.heads {
            scratch.attention.resize_with(self.heads, Vec::new);
        }

        let noop = faults.is_noop();
        let mut recomputed_entries = 0usize;
        let mut kv_entries_read = 0usize;

        for h in 0..self.heads {
            faults.begin_lane(layer, h);
            let (rec, read) = self.attend_head(layer, h, noop, &*cache, faults, scratch);
            recomputed_entries += rec;
            kv_entries_read += read;
            cache.observe_attention(layer, h, &scratch.attention[h]);
        }

        self.weights
            .wo
            .matvec_into(&scratch.concat, &mut scratch.attn_out)
            .expect("concatenated head outputs match channel dimension");

        (recomputed_entries, kv_entries_read)
    }

    /// The complete per-head attention pass — score traversal, in-place
    /// softmax, weighted-value accumulation — for head `h`, reading the
    /// head's query slice from `scratch` and writing the head output into its
    /// `head_dim` slice of the concat buffer and the post-softmax labels into
    /// its label vector.
    ///
    /// The cache is taken by `&` (reads only); reporting the labels back
    /// through [`KvCacheBackend::observe_attention`] is the caller's
    /// responsibility.  Returns `(recomputed_entries, kv_entries_read)` for
    /// this head.
    fn attend_head(
        &self,
        layer: usize,
        h: usize,
        noop: bool,
        cache: &dyn KvCacheBackend,
        faults: &mut dyn FaultInjector,
        scratch: &mut DecodeScratch,
    ) -> (usize, usize) {
        let hd = self.head_dim;
        let scale = 1.0 / (hd as f32).sqrt();
        let DecodeScratch {
            q,
            scores,
            tokens,
            stash,
            stash_mask,
            kbuf,
            xbuf,
            rk,
            rv,
            yh,
            concat,
            attention,
            ..
        } = scratch;
        let qh = &q[h * hd..(h + 1) * hd];
        let labels = &mut attention[h];
        scores.clear();
        tokens.clear();
        stash.clear();
        stash_mask.clear();

        let mut recomputed_entries = 0usize;
        let mut kv_entries_read = 0usize;

        // Pass 1: raw attention scores (Eq. 1 numerator exponents), one
        // traversal over the head's arena.  Keys are read by reference
        // when no faults are active; corrupted or recomputed reads are
        // staged in scratch, and their value vectors stashed for pass 2.
        {
            let weights = self.weights;
            let rope_theta = self.rope_theta;
            cache.for_each_entry(layer, h, &mut |e| {
                let group = if e.high_score {
                    TokenGroup::HighScore
                } else {
                    TokenGroup::LowScore
                };
                let score = match e.payload {
                    PayloadRef::Kv { key, value } => {
                        kv_entries_read += 1;
                        if noop {
                            stash_mask.push(false);
                            kelle_tensor::dot(key, qh) * scale
                        } else {
                            kbuf.clear();
                            kbuf.extend_from_slice(key);
                            faults.corrupt_slice(kbuf, group);
                            let start = stash.len();
                            stash.extend_from_slice(value);
                            faults.corrupt_slice(&mut stash[start..], group);
                            stash_mask.push(true);
                            kelle_tensor::dot(kbuf, qh) * scale
                        }
                    }
                    PayloadRef::Recompute { x: stored_x } => {
                        recomputed_entries += 1;
                        // Faults hit the *stored* input vector; the
                        // recomputed KV inherits the corruption through
                        // the projection.
                        let src: &[f32] = if noop {
                            stored_x
                        } else {
                            xbuf.clear();
                            xbuf.extend_from_slice(stored_x);
                            faults.corrupt_slice(xbuf, group);
                            xbuf
                        };
                        // Only this head's rows of W_K/W_V are needed;
                        // the row-range projection is bitwise identical
                        // to the corresponding slice of the full matvec
                        // at 1/heads of the cost.
                        weights
                            .wk
                            .matvec_rows_into(h * hd..(h + 1) * hd, src, rk)
                            .expect("stored input matches channel dimension");
                        weights
                            .wv
                            .matvec_rows_into(h * hd..(h + 1) * hd, src, rv)
                            .expect("stored input matches channel dimension");
                        ops::apply_rope(rk, e.token, rope_theta);
                        stash.extend_from_slice(rv);
                        stash_mask.push(true);
                        kelle_tensor::dot(rk, qh) * scale
                    }
                };
                scores.push(score);
                tokens.push(e.token);
            });
        }

        // Pass 2: online softmax in place, then the weighted-value
        // accumulation (Eq. 2) in entry order.
        ops::softmax_into(scores);

        yh.clear();
        yh.resize(hd, 0.0);
        if noop {
            // Values come straight from the arena by reference; only
            // recomputed entries were stashed.  The payload-only
            // traversal skips the backends' importance labelling.
            let mut idx = 0usize;
            let mut spos = 0usize;
            cache.for_each_payload(layer, h, &mut |payload| {
                let p = scores[idx];
                let val: &[f32] = if stash_mask[idx] {
                    let s = &stash[spos..spos + hd];
                    spos += hd;
                    s
                } else {
                    match payload {
                        PayloadRef::Kv { value, .. } => value,
                        // stash_mask[idx] is false only for Kv entries;
                        // a backend changing its answer between the two
                        // traversals violates the trait contract.
                        PayloadRef::Recompute { .. } => {
                            unreachable!("entry visitation changed between traversals")
                        }
                    }
                };
                for (o, vi) in yh.iter_mut().zip(val.iter()) {
                    *o += p * vi;
                }
                idx += 1;
            });
            debug_assert_eq!(idx, scores.len(), "entry count changed between traversals");
        } else {
            // Every value was staged during pass 1.
            for (p, val) in scores.iter().zip(stash.chunks_exact(hd)) {
                for (o, vi) in yh.iter_mut().zip(val.iter()) {
                    *o += p * vi;
                }
            }
        }

        labels.clear();
        labels.extend(tokens.iter().copied().zip(scores.iter().copied()));
        concat[h * hd..(h + 1) * hd].copy_from_slice(yh);
        (recomputed_entries, kv_entries_read)
    }

    /// Runs one decoding-step attention forward pass, allocating a fresh
    /// scratch and returning owned results.
    ///
    /// Convenience wrapper over
    /// [`forward_with`](MultiHeadAttention::forward_with) for tests and
    /// one-shot callers; hot loops should hold a [`DecodeScratch`] and call
    /// `forward_with` directly.
    pub fn forward(
        &self,
        layer: usize,
        token: TokenId,
        position: usize,
        x: &[f32],
        cache: &mut dyn KvCacheBackend,
        faults: &mut dyn FaultInjector,
    ) -> AttentionOutput {
        let mut scratch = DecodeScratch::new();
        let (recomputed_entries, kv_entries_read) =
            self.forward_with(layer, token, position, x, cache, faults, &mut scratch);
        AttentionOutput {
            output: scratch.attn_out,
            attention: scratch.attention,
            recomputed_entries,
            kv_entries_read,
        }
    }

    /// The historical materialize-then-compute forward pass, preserved as the
    /// reference implementation.
    ///
    /// It drives attention through the owned
    /// [`entries`](KvCacheBackend::entries) adapter — deep-cloning every
    /// cached key/value (twice, once for materialization and once for fault
    /// staging) and allocating every intermediate — exactly as the storage
    /// layer behaved before the arena rewrite.  The equivalence suite asserts
    /// its outputs are bit-for-bit identical to
    /// [`forward_with`](MultiHeadAttention::forward_with), and the decode
    /// benchmark reports the hot path's speedup over it.
    pub fn forward_via_entries(
        &self,
        layer: usize,
        token: TokenId,
        position: usize,
        x: &[f32],
        cache: &mut dyn KvCacheBackend,
        faults: &mut dyn FaultInjector,
    ) -> AttentionOutput {
        let q_full = self
            .weights
            .wq
            .matvec(x)
            .expect("input length matches channel dimension");
        let hd = self.head_dim;
        let mut q = q_full;
        for qh in q.chunks_exact_mut(hd) {
            ops::apply_rope(qh, position, self.rope_theta);
        }
        let (k, v) = self.project_kv(x, position);

        cache.insert(layer, token, x, &k, &v, hd);

        let scale = 1.0 / (hd as f32).sqrt();
        let mut concatenated = vec![0.0f32; self.heads * hd];
        let mut attention = Vec::with_capacity(self.heads);
        let mut recomputed_entries = 0;
        let mut kv_entries_read = 0;

        for h in 0..self.heads {
            // Same per-(layer, head) fault-lane selection as the fused pass,
            // so both consume identical RNG substreams.
            faults.begin_lane(layer, h);
            let qh = &q[h * hd..(h + 1) * hd];
            let entries = cache.entries(layer, h);
            let mut scores = Vec::with_capacity(entries.len());
            let mut values = Vec::with_capacity(entries.len());
            let mut tokens = Vec::with_capacity(entries.len());
            for entry in &entries {
                let group = if entry.high_score {
                    TokenGroup::HighScore
                } else {
                    TokenGroup::LowScore
                };
                let (key, value) = match &entry.payload {
                    EntryPayload::Kv { key, value } => {
                        kv_entries_read += 1;
                        let mut k = key.clone();
                        let mut v = value.clone();
                        faults.corrupt_slice(&mut k, group);
                        faults.corrupt_slice(&mut v, group);
                        (k, v)
                    }
                    EntryPayload::Recompute { x } => {
                        recomputed_entries += 1;
                        let mut stored_x = x.clone();
                        faults.corrupt_slice(&mut stored_x, group);
                        let (rk, rv) = self.project_kv(&stored_x, entry.token);
                        (
                            rk[h * hd..(h + 1) * hd].to_vec(),
                            rv[h * hd..(h + 1) * hd].to_vec(),
                        )
                    }
                };
                scores.push(kelle_tensor::dot(&key, qh) * scale);
                values.push(value);
                tokens.push(entry.token);
            }

            let probs = ops::softmax(&scores);
            let mut yh = vec![0.0f32; hd];
            for (p, val) in probs.iter().zip(values.iter()) {
                for (o, vi) in yh.iter_mut().zip(val.iter()) {
                    *o += p * vi;
                }
            }
            let labelled: Vec<(TokenId, f32)> =
                tokens.iter().copied().zip(probs.iter().copied()).collect();
            cache.observe_attention(layer, h, &labelled);
            attention.push(labelled);
            concatenated[h * hd..(h + 1) * hd].copy_from_slice(&yh);
        }

        let output = self
            .weights
            .wo
            .matvec(&concatenated)
            .expect("concatenated head outputs match channel dimension");

        AttentionOutput {
            output,
            attention,
            recomputed_entries,
            kv_entries_read,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::FullKvCache;
    use crate::config::SurrogateDims;
    use crate::fault::{BitFlipRates, NoFaults, ProbabilisticFaults};
    use crate::weights::{ModelWeights, WeightGenConfig};

    fn setup() -> (ModelWeights, SurrogateDims) {
        let dims = SurrogateDims {
            layers: 1,
            heads: 4,
            channels: 32,
            ffn_dim: 64,
            vocab: 64,
        };
        let weights = ModelWeights::generate(&dims, &WeightGenConfig::default(), 3);
        (weights, dims)
    }

    #[test]
    fn attention_probabilities_sum_to_one() {
        let (weights, dims) = setup();
        let attn = MultiHeadAttention::new(&weights.layers[0], dims.heads);
        let mut cache = FullKvCache::new();
        let mut faults = NoFaults;
        for pos in 0..5 {
            let x = weights.embed(pos % dims.vocab, pos);
            let out = attn.forward(0, pos, pos, &x, &mut cache, &mut faults);
            for head in &out.attention {
                let total: f32 = head.iter().map(|(_, p)| p).sum();
                assert!((total - 1.0).abs() < 1e-4);
                assert_eq!(head.len(), pos + 1);
            }
        }
    }

    #[test]
    fn output_dimension_matches_channels() {
        let (weights, dims) = setup();
        let attn = MultiHeadAttention::new(&weights.layers[0], dims.heads);
        let mut cache = FullKvCache::new();
        let mut faults = NoFaults;
        let x = weights.embed(1, 0);
        let out = attn.forward(0, 0, 0, &x, &mut cache, &mut faults);
        assert_eq!(out.output.len(), dims.channels);
        assert_eq!(out.attention.len(), dims.heads);
    }

    /// The fused scratch-based pass and the materializing reference pass must
    /// agree bit for bit, with and without active fault injection (the fault
    /// RNG consumption order is part of the contract).
    #[test]
    fn fused_pass_matches_reference_bitwise() {
        let (weights, dims) = setup();
        let attn = MultiHeadAttention::new(&weights.layers[0], dims.heads);
        for faulty in [false, true] {
            let run = |fused: bool| -> Vec<u32> {
                let mut cache = FullKvCache::new();
                let mut noop = NoFaults;
                let mut prob = ProbabilisticFaults::new(BitFlipRates::uniform(0.02), 11);
                let faults: &mut dyn FaultInjector = if faulty { &mut prob } else { &mut noop };
                let mut scratch = DecodeScratch::new();
                let mut out = Vec::new();
                for pos in 0..6 {
                    let x = weights.embed((pos * 3) % dims.vocab, pos);
                    if fused {
                        attn.forward_with(0, pos, pos, &x, &mut cache, faults, &mut scratch);
                        out = scratch.output().to_vec();
                    } else {
                        out = attn
                            .forward_via_entries(0, pos, pos, &x, &mut cache, faults)
                            .output;
                    }
                }
                out.iter().map(|f| f.to_bits()).collect()
            };
            assert_eq!(run(true), run(false), "faulty = {faulty}");
        }
    }

    #[test]
    fn scratch_reuse_is_stable_across_steps() {
        let (weights, dims) = setup();
        let attn = MultiHeadAttention::new(&weights.layers[0], dims.heads);
        let mut cache = FullKvCache::new();
        let mut faults = NoFaults;
        let mut scratch = DecodeScratch::new();
        for pos in 0..4 {
            let x = weights.embed(pos, pos);
            let (rec, read) =
                attn.forward_with(0, pos, pos, &x, &mut cache, &mut faults, &mut scratch);
            assert_eq!(rec, 0);
            assert_eq!(read, (pos + 1) * dims.heads);
            assert_eq!(scratch.output().len(), dims.channels);
            assert_eq!(scratch.attention_labels().len(), dims.heads);
            for head in scratch.attention_labels() {
                assert_eq!(head.len(), pos + 1);
            }
        }
    }
}
