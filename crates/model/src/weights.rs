//! Surrogate weight generation.
//!
//! The surrogate model's weights are synthetic but *structured*: they are
//! drawn so that the resulting attention-score distributions exhibit the two
//! empirical properties the paper's algorithms rely on:
//!
//! 1. **Heavy-hitter concentration** — a small subset of tokens accumulates a
//!    disproportionate share of attention mass (the basis of H2O and of AERP's
//!    importance-score eviction).  This is achieved by sharpening the query/key
//!    projections (larger singular values → peakier softmax) and by embedding a
//!    low-rank "topic" component shared across positions.
//! 2. **Attention sinks** — the first few tokens receive consistently high
//!    attention (the basis of StreamingLLM's sink-token retention).  This is
//!    achieved with a learned-looking bias added to the key projection of
//!    early positions via a dedicated sink direction in embedding space.
//!
//! Weight generation is fully deterministic given a seed.

use crate::config::SurrogateDims;
use kelle_tensor::rng::{self, fill_xavier};
use kelle_tensor::Matrix;

/// Weights of a single decoder layer of the surrogate model.
///
/// The fields are public to read.  `wk` and `wv` must not change once the
/// layer is generated: the attention pass corrects a faulted read through a
/// private column copy of them taken at generation, and an edit would leave
/// that copy stale (release builds would then correct with the old weights;
/// only the debug audit of every corrected read would notice).
#[derive(Debug, Clone)]
pub struct LayerWeights {
    /// Query projection, `channels x channels`.
    pub wq: Matrix,
    /// Key projection, `channels x channels`.  Fixed after generation (see
    /// the type's docs).
    pub wk: Matrix,
    /// Value projection, `channels x channels`.  Fixed after generation.
    pub wv: Matrix,
    /// Output projection, `channels x channels`.
    pub wo: Matrix,
    /// FFN gate projection, `ffn_dim x channels`.
    pub w_gate: Matrix,
    /// FFN up projection, `ffn_dim x channels`.
    pub w_up: Matrix,
    /// FFN down projection, `channels x ffn_dim`.
    pub w_down: Matrix,
    /// RMSNorm gain before attention, length `channels`.
    pub attn_norm: Vec<f32>,
    /// RMSNorm gain before the FFN, length `channels`.
    pub ffn_norm: Vec<f32>,
    /// `W_K` and `W_V` by column, head-major, for the attention pass's
    /// sparse corrections of a stored row's key and value.
    kv_columns: KvColumns,
}

impl LayerWeights {
    /// Writes head `head`'s `W_K,h[:, J]·δ_J` and then its `W_V,h[:, J]·δ_J`
    /// to the start of `out`, summed over the `(j, δ_j)` of `flips` in their
    /// order with one multiply and one add per weight, from the column copy.
    ///
    /// # Panics
    ///
    /// Panics unless `out` is [`kv_correction_len`](Self::kv_correction_len)
    /// floats long.
    pub(crate) fn kv_correction(&self, head: usize, flips: &[(u32, f32)], out: &mut [f32]) {
        assert_eq!(out.len(), self.kv_columns.run, "one column run");
        accumulate(out, self.kv_columns.head(head), flips);
    }

    /// The length of the buffer [`kv_correction`](Self::kv_correction)
    /// writes: `2 × head_dim`, padded to whole column-run blocks.
    pub(crate) fn kv_correction_len(&self) -> usize {
        self.kv_columns.run
    }

    /// The per-head width the column copy was laid out for.
    pub(crate) fn kv_columns_head_dim(&self) -> usize {
        self.kv_columns.head_dim
    }
}

/// The floats a column run of [`KvColumns`] is padded to a multiple of: a
/// correction sums one block of a run at a time in registers.  The
/// surrogate's 8-wide heads fill one block exactly.
const KV_RUN_BLOCK: usize = 16;

/// A head-major transposed copy of `[W_K; W_V]`: per head, per input
/// channel `j`, the `2 × head_dim` weights that multiply `x_j` in the head's
/// key and value, zero-padded to a run of whole [`KV_RUN_BLOCK`]s.  A
/// correction for a few changed input words then reads one contiguous run
/// per word.  It is built once with the weights, `2 × channels²` floats per
/// layer when `2 × head_dim` fills its blocks, and shared by every session.
#[derive(Debug, Clone)]
struct KvColumns {
    heads: usize,
    head_dim: usize,
    /// Floats per column run.
    run: usize,
    /// `heads × channels × run` floats.
    data: Vec<f32>,
}

impl KvColumns {
    fn new(wk: &Matrix, wv: &Matrix, heads: usize) -> Self {
        let channels = wk.cols();
        let head_dim = channels / heads;
        let run = (2 * head_dim).next_multiple_of(KV_RUN_BLOCK);
        let mut data = vec![0.0; heads * channels * run];
        // Row `r` of `W_K`/`W_V` is output `i` of head `r / head_dim`: its
        // weights go to place `i` (`W_K`) and `head_dim + i` (`W_V`) of every
        // column run of that head's block.
        for r in 0..channels {
            let (head, i) = (r / head_dim, r % head_dim);
            let block = &mut data[head * channels * run..(head + 1) * channels * run];
            let (k, v) = (wk.row(r), wv.row(r));
            let (k, v) = (k.expect("row within W_K"), v.expect("row within W_V"));
            for ((run, &k), &v) in block.chunks_exact_mut(run).zip(k).zip(v) {
                run[i] = k;
                run[head_dim + i] = v;
            }
        }
        KvColumns {
            heads,
            head_dim,
            run,
            data,
        }
    }

    fn head(&self, head: usize) -> &[f32] {
        let block = self.data.len() / self.heads;
        &self.data[head * block..(head + 1) * block]
    }
}

/// `out = Σ columns[j]·δ` over the `(j, δ)` of `flips`, in their order,
/// one multiply and one add per weight, each column `out.len()` floats of
/// `columns`, laid out in runs of whole [`KV_RUN_BLOCK`]s; the sums of one
/// block are kept in registers across the flips.
///
/// # Panics
///
/// Panics unless `out.len()` is a multiple of [`KV_RUN_BLOCK`].
fn accumulate(out: &mut [f32], columns: &[f32], flips: &[(u32, f32)]) {
    let (out, []) = out.as_chunks_mut::<KV_RUN_BLOCK>() else {
        panic!("a column run is whole blocks");
    };
    let (columns, _) = columns.as_chunks::<KV_RUN_BLOCK>();
    let blocks = out.len();
    for (b, out) in out.iter_mut().enumerate() {
        let mut sums = [0.0f32; KV_RUN_BLOCK];
        for &(j, delta) in flips {
            for (s, &w) in sums.iter_mut().zip(&columns[j as usize * blocks + b]) {
                *s += w * delta;
            }
        }
        *out = sums;
    }
}

/// All weights of the surrogate model.
#[derive(Debug, Clone)]
pub struct ModelWeights {
    /// Token embedding table, `vocab x channels` (also used, transposed, as the
    /// LM head — weight tying).
    pub embedding: Matrix,
    /// Per-layer weights.
    pub layers: Vec<LayerWeights>,
    /// Final RMSNorm gain.
    pub final_norm: Vec<f32>,
    /// The "sink" direction in embedding space: token 0's embedding is pushed
    /// along this direction so that keys of early tokens align with all queries.
    pub sink_direction: Vec<f32>,
}

/// Controls the statistical structure of generated weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightGenConfig {
    /// Multiplier on the key projection that sharpens attention score spread.
    /// 1.0 gives near-uniform attention; 2.5–4.0 gives realistic heavy tails.
    pub(crate) attention_sharpness: f32,
    /// Strength of the attention-sink component added to early-token keys.
    pub(crate) sink_strength: f32,
    /// Rank of the shared low-rank "topic" component in `W_K`/`W_Q`.
    pub(crate) topic_rank: usize,
}

impl Default for WeightGenConfig {
    fn default() -> Self {
        WeightGenConfig {
            attention_sharpness: 3.0,
            sink_strength: 2.0,
            topic_rank: 4,
        }
    }
}

fn random_matrix(rows: usize, cols: usize, rng: &mut rng::DetRng) -> Matrix {
    let mut m = Matrix::zeros(rows, cols).expect("surrogate dims are non-zero");
    fill_xavier(rng, m.as_mut_slice(), cols);
    m
}

/// Adds a shared low-rank component `scale * U V^T` to `target`, where `U` and
/// `V` are sampled from `rng`.  This correlates query and key spaces so that a
/// few directions dominate the score computation, producing heavy-tailed
/// attention distributions.
fn add_low_rank(target: &mut Matrix, rank: usize, scale: f32, rng: &mut rng::DetRng) {
    let (rows, cols) = target.shape();
    for _ in 0..rank {
        let u: Vec<f32> = (0..rows).map(|_| rng::standard_normal(rng)).collect();
        let v: Vec<f32> = (0..cols).map(|_| rng::standard_normal(rng)).collect();
        let norm = (rows as f32).sqrt() * (cols as f32).sqrt();
        for (r, &u_r) in u.iter().enumerate() {
            for (c, &v_c) in v.iter().enumerate() {
                let val = target.get(r, c) + scale * u_r * v_c / norm;
                target.set(r, c, val);
            }
        }
    }
}

impl ModelWeights {
    /// Generates surrogate weights deterministically from `seed`.
    pub fn generate(dims: &SurrogateDims, config: &WeightGenConfig, seed: u64) -> Self {
        let mut layers = Vec::with_capacity(dims.layers);
        for layer in 0..dims.layers {
            let mut lrng = rng::substream(seed, &format!("layer-{layer}"));
            let wq_base = random_matrix(dims.channels, dims.channels, &mut lrng);
            let mut wq = wq_base.scaled(config.attention_sharpness.sqrt());
            let mut wk = random_matrix(dims.channels, dims.channels, &mut lrng)
                .scaled(config.attention_sharpness.sqrt());
            // Shared low-rank topic component correlates Q and K spaces.
            let mut topic_rng = rng::substream(seed, &format!("topic-{layer}"));
            add_low_rank(
                &mut wq,
                config.topic_rank,
                config.attention_sharpness,
                &mut topic_rng,
            );
            let mut topic_rng2 = rng::substream(seed, &format!("topic-{layer}"));
            add_low_rank(
                &mut wk,
                config.topic_rank,
                config.attention_sharpness,
                &mut topic_rng2,
            );
            let wv = random_matrix(dims.channels, dims.channels, &mut lrng);
            let wo = random_matrix(dims.channels, dims.channels, &mut lrng);
            let w_gate = random_matrix(dims.ffn_dim, dims.channels, &mut lrng);
            let w_up = random_matrix(dims.ffn_dim, dims.channels, &mut lrng);
            let w_down = random_matrix(dims.channels, dims.ffn_dim, &mut lrng);
            let kv_columns = KvColumns::new(&wk, &wv, dims.heads);
            layers.push(LayerWeights {
                wq,
                wk,
                wv,
                wo,
                w_gate,
                w_up,
                w_down,
                attn_norm: vec![1.0; dims.channels],
                ffn_norm: vec![1.0; dims.channels],
                kv_columns,
            });
        }

        let mut erng = rng::substream(seed, "embedding");
        let embedding = random_matrix(dims.vocab, dims.channels, &mut erng);
        let mut srng = rng::substream(seed, "sink");
        let sink_direction: Vec<f32> = (0..dims.channels)
            .map(|_| rng::standard_normal(&mut srng) * config.sink_strength)
            .collect();

        ModelWeights {
            embedding,
            layers,
            final_norm: vec![1.0; dims.channels],
            sink_direction,
        }
    }

    /// The embedding of a token, with the sink component applied to position 0.
    ///
    /// # Panics
    ///
    /// Panics if `token` is outside the vocabulary.
    pub fn embed(&self, token: usize, position: usize) -> Vec<f32> {
        let mut x = Vec::new();
        self.embed_into(token, position, &mut x);
        x
    }

    /// [`embed`](ModelWeights::embed) into a caller-owned buffer (cleared and
    /// refilled), so the decode hot path can reuse its allocation.
    ///
    /// # Panics
    ///
    /// Panics if `token` is outside the vocabulary.
    pub fn embed_into(&self, token: usize, position: usize, out: &mut Vec<f32>) {
        let row = self
            .embedding
            .row(token)
            .expect("token id within surrogate vocabulary");
        out.clear();
        out.extend_from_slice(row);
        if position == 0 {
            for (xi, s) in out.iter_mut().zip(self.sink_direction.iter()) {
                *xi += s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims() -> SurrogateDims {
        SurrogateDims {
            layers: 2,
            heads: 4,
            channels: 32,
            ffn_dim: 64,
            vocab: 128,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let d = dims();
        let a = ModelWeights::generate(&d, &WeightGenConfig::default(), 5);
        let b = ModelWeights::generate(&d, &WeightGenConfig::default(), 5);
        assert_eq!(a.layers[0].wq, b.layers[0].wq);
        assert_eq!(a.embedding, b.embedding);
    }

    #[test]
    fn different_seeds_differ() {
        let d = dims();
        let a = ModelWeights::generate(&d, &WeightGenConfig::default(), 5);
        let b = ModelWeights::generate(&d, &WeightGenConfig::default(), 6);
        assert_ne!(a.layers[0].wq, b.layers[0].wq);
    }

    #[test]
    fn layers_have_expected_shapes() {
        let d = dims();
        let w = ModelWeights::generate(&d, &WeightGenConfig::default(), 1);
        assert_eq!(w.layers.len(), 2);
        assert_eq!(w.layers[0].wq.shape(), (32, 32));
        assert_eq!(w.layers[0].w_gate.shape(), (64, 32));
        assert_eq!(w.layers[0].w_down.shape(), (32, 64));
        assert_eq!(w.embedding.shape(), (128, 32));
    }

    #[test]
    fn sink_applies_only_to_position_zero() {
        let d = dims();
        let w = ModelWeights::generate(&d, &WeightGenConfig::default(), 1);
        let at0 = w.embed(3, 0);
        let at5 = w.embed(3, 5);
        assert_ne!(at0, at5);
        let at6 = w.embed(3, 6);
        assert_eq!(at5, at6);
    }

    #[test]
    fn sharpness_increases_weight_magnitude() {
        let d = dims();
        let soft = ModelWeights::generate(
            &d,
            &WeightGenConfig {
                attention_sharpness: 1.0,
                ..WeightGenConfig::default()
            },
            1,
        );
        let sharp = ModelWeights::generate(
            &d,
            &WeightGenConfig {
                attention_sharpness: 4.0,
                ..WeightGenConfig::default()
            },
            1,
        );
        assert!(sharp.layers[0].wk.frobenius_norm() > soft.layers[0].wk.frobenius_norm());
    }

    /// `accumulate` overwrites its output with the sum over the flips in
    /// order, a multiply then an add, for runs of one block and of several.
    #[test]
    fn accumulate_sums_the_flipped_columns_in_order_at_every_width() {
        for width in [KV_RUN_BLOCK, 3 * KV_RUN_BLOCK] {
            let columns: Vec<f32> = (0..5 * width).map(|i| (i as f32 * 0.37).sin()).collect();
            let flips = [(0u32, 1.5f32), (2, -0.25), (3, 1e-3), (4, 300.0)];
            let mut expected = vec![0.0f32; width];
            for &(j, delta) in &flips {
                for (i, e) in expected.iter_mut().enumerate() {
                    *e += columns[j as usize * width + i] * delta;
                }
            }
            let mut out = vec![f32::NAN; width];
            accumulate(&mut out, &columns, &flips);
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&expected), "width {width}");
        }
    }
}
