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
#[derive(Debug, Clone)]
pub struct LayerWeights {
    /// Query projection, `channels x channels`.
    pub wq: Matrix,
    /// Key projection, `channels x channels`.
    pub wk: Matrix,
    /// Value projection, `channels x channels`.
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
    pub attention_sharpness: f32,
    /// Strength of the attention-sink component added to early-token keys.
    pub sink_strength: f32,
    /// Rank of the shared low-rank "topic" component in `W_K`/`W_Q`.
    pub topic_rank: usize,
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
}
