//! A textbook f64 forward of the surrogate as the tolerance oracle.
//!
//! The golden fixtures pin what the served forward computes; this file pins
//! that what it computes is the model.  [`Oracle`] is the surrogate written
//! as naive f64 loops straight from its definition: the embedding (with the
//! sink direction at position 0), per layer a pre-norm RMSNorm, the Q/K/V
//! projections, RoPE on queries and keys, Eq. 1 scores scaled by `1/√d`
//! over the head's retained tokens, Eq. 2's softmax-weighted sum of values,
//! `W_O` and the residual, then a pre-norm gated-MLP FFN (SiLU) and its
//! residual, and finally RMSNorm and the tied LM head.  It reads the weights
//! through the public `ModelWeights`/`LayerWeights` fields and uses no
//! arena, scratch or lane.
//!
//! A cache policy decides *which* tokens a head attends to, not how
//! attention is computed.  So a teacher-forced, fault-free run is served
//! token by token, and after every token each `(layer, head)`'s retained set
//! is read back through `for_each_entry` — the set that token's attention
//! read, since nothing between a layer's attention and the next token's
//! insert changes which tokens a head holds.  The oracle replays the run
//! over those sets, and every served logit must match its logit within
//! [`LOGIT_TOLERANCE`] for `full`, `streaming-llm`, `h2o`, `aerp` and
//! `quarot-kv4`.
//!
//! QuaRot stores each head's key and value as their symmetric per-vector
//! int4 image, so for it the oracle puts its own f64 keys and values through
//! the same grid.  Away from a rounding tie both sides pick the same code,
//! and the f32 bound below holds unchanged.  At a tie the served f32 value
//! may land on the other side, which moves one code by one step.  So every
//! code the oracle finds within [`TIE_MARGIN`] of a tie loosens the bound of
//! each later step by what moving that code to the other side does to the
//! step's logits, which the oracle computes by replaying the run with the
//! code moved.  In this run one code lies that close, and it loosens no
//! step's bound by more than 5 %.  Reading the keys and values unquantized
//! moves the first token's logits 0.15 away, against a bound of 2.7·10⁻⁴.
//! A fixed bound that covered *any* one code moved by one step would not
//! tell the two apart: moving one code of the sink's key moves a logit by
//! up to 0.70 of the step's largest, more than all of int4's rounding does.
//!
//! The bound is an f32 one: the served forward rounds every product and sum
//! to f32 (unit roundoff 2⁻²⁴ ≈ 6·10⁻⁸) through four layers of 64-wide dot
//! products, softmax and RMSNorm, while the oracle's rounding is ≈10⁻¹⁶.  The
//! largest logit of a step here is 2.6–4.2, and the largest gap a step shows
//! is 1.5·10⁻⁵ of it, so the bound of 10⁻⁴ of it leaves a margin of about
//! seven.  A wrong rotation, a missing score scale or a retained set off by
//! one token moves a logit by orders of magnitude more.

use kelle::cache::{CacheBudget, CachePolicy, KvCacheBackend};
use kelle::model::generation::{decode_step, prefill_extend, GenerationState};
use kelle::model::weights::{LayerWeights, ModelWeights};
use kelle::model::{ModelConfig, ModelKind, NoFaults, SurrogateModel};
use kelle::tensor::Matrix;

/// Allowed gap between a served logit and the oracle's, as a fraction of
/// the largest oracle logit magnitude of the step (at least 1).
const LOGIT_TOLERANCE: f64 = 1e-4;

/// A QuaRot code whose exact quotient lies within this many grid steps of a
/// rounding tie may round the other way in the served f32 forward.  Measured
/// on `full` in this run, a served key or value element is within
/// 4.1·10⁻⁵ of a step of the oracle's, so the margin covers it 2.5 times.
const TIE_MARGIN: f64 = 1e-4;

/// RMSNorm's epsilon and RoPE's base, as the surrogate defines them.
const RMS_EPS: f64 = 1e-5;
const ROPE_THETA: f64 = 10_000.0;

/// Tokens each `(layer, head)` retained after one served token, indexed
/// `[layer][head]`.
type Retained = Vec<Vec<Vec<usize>>>;

fn matvec(m: &Matrix, x: &[f64]) -> Vec<f64> {
    (0..m.rows())
        .map(|r| (0..m.cols()).map(|c| m.get(r, c) as f64 * x[c]).sum())
        .collect()
}

fn rms_norm(x: &[f64], gain: &[f32]) -> Vec<f64> {
    let ms = x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64;
    let denom = (ms + RMS_EPS).sqrt();
    x.iter()
        .zip(gain)
        .map(|(v, &g)| v / denom * g as f64)
        .collect()
}

/// RoPE: rotates each pair `(v[2i], v[2i+1])` of every `head_dim` chunk by
/// `position · θ^(−2i/head_dim)`.
fn rope(v: &mut [f64], position: usize, head_dim: usize) {
    for head in v.chunks_exact_mut(head_dim) {
        for (i, pair) in head.chunks_exact_mut(2).enumerate() {
            let angle = position as f64 * ROPE_THETA.powf(-(2.0 * i as f64) / head_dim as f64);
            let (sin, cos) = angle.sin_cos();
            let (a, b) = (pair[0], pair[1]);
            pair[0] = a * cos - b * sin;
            pair[1] = a * sin + b * cos;
        }
    }
}

/// Symmetric per-vector int4, the grid QuaRot stores: the scale maps the
/// largest magnitude to 7, and each value reads back as its code (rounded
/// half away from zero, clamped to `[-8, 7]`) times the scale.  A code
/// within [`TIE_MARGIN`] of a tie is reported as `(index, the step to the
/// other side)`.
fn int4_round_trip(v: &mut [f64], mut on_tie: impl FnMut(usize, f64)) {
    let max_abs = v.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    let scale = if max_abs == 0.0 { 1.0 } else { max_abs / 7.0 };
    for (i, x) in v.iter_mut().enumerate() {
        let quotient = *x / scale;
        let code = quotient.round().clamp(-8.0, 7.0);
        if (quotient - quotient.floor() - 0.5).abs() < TIE_MARGIN {
            let other = if code > quotient {
                code - 1.0
            } else {
                code + 1.0
            };
            on_tie(i, (other.clamp(-8.0, 7.0) - code) * scale);
        }
        *x = code * scale;
    }
}

/// One stored code moved by `delta`: element `index` of the rotated key
/// (`key`) or the value of `position` at `layer`.
#[derive(Debug, Clone, Copy)]
struct Nudge {
    layer: usize,
    position: usize,
    key: bool,
    index: usize,
    delta: f64,
}

fn silu(x: f64) -> f64 {
    x / (1.0 + (-x).exp())
}

/// The f64 forward, one token at a time, keeping every token's rotated keys
/// and values per layer.
struct Oracle<'w> {
    weights: &'w ModelWeights,
    heads: usize,
    /// Whether each head's key and value pass through the int4 grid.
    int4: bool,
    /// The one stored code this oracle moves, if any.
    nudge: Option<Nudge>,
    /// Every code that lay within [`TIE_MARGIN`] of a rounding tie, moved to
    /// the other side.
    ties: Vec<Nudge>,
    /// `[layer][position]`: the position's rotated keys and its values.
    kv: Vec<Vec<(Vec<f64>, Vec<f64>)>>,
}

impl<'w> Oracle<'w> {
    fn new(weights: &'w ModelWeights, heads: usize, int4: bool, nudge: Option<Nudge>) -> Self {
        Oracle {
            weights,
            heads,
            int4,
            nudge,
            ties: Vec::new(),
            kv: vec![Vec::new(); weights.layers.len()],
        }
    }

    /// The logits of `token` at `position`, each head of each layer
    /// attending over `retained[layer][head]`.
    fn forward(&mut self, token: usize, position: usize, retained: &Retained) -> Vec<f64> {
        let w = self.weights;
        let embedding = w.embedding.row(token).expect("token in vocabulary");
        let mut hidden: Vec<f64> = embedding.iter().map(|&e| e as f64).collect();
        if position == 0 {
            for (h, &s) in hidden.iter_mut().zip(&w.sink_direction) {
                *h += s as f64;
            }
        }
        for (layer, lw) in w.layers.iter().enumerate() {
            let attn = self.attention(layer, lw, &hidden, position, &retained[layer]);
            for (h, a) in hidden.iter_mut().zip(attn) {
                *h += a;
            }
            let normed = rms_norm(&hidden, &lw.ffn_norm);
            let gate = matvec(&lw.w_gate, &normed);
            let up = matvec(&lw.w_up, &normed);
            let act: Vec<f64> = gate.iter().zip(&up).map(|(&g, &u)| silu(g) * u).collect();
            for (h, d) in hidden.iter_mut().zip(matvec(&lw.w_down, &act)) {
                *h += d;
            }
        }
        matvec(&w.embedding, &rms_norm(&hidden, &w.final_norm))
    }

    /// Eq. 1–2 for every head, then `W_O`.
    fn attention(
        &mut self,
        layer: usize,
        lw: &LayerWeights,
        hidden: &[f64],
        position: usize,
        retained: &[Vec<usize>],
    ) -> Vec<f64> {
        let x = rms_norm(hidden, &lw.attn_norm);
        let (mut q, mut k) = (matvec(&lw.wq, &x), matvec(&lw.wk, &x));
        let mut v = matvec(&lw.wv, &x);
        let hd = x.len() / self.heads;
        rope(&mut q, position, hd);
        rope(&mut k, position, hd);
        if self.int4 {
            for (key, stored) in [(true, &mut k), (false, &mut v)] {
                for (h, head) in stored.chunks_exact_mut(hd).enumerate() {
                    int4_round_trip(head, |i, delta| {
                        let index = h * hd + i;
                        self.ties.push(Nudge {
                            layer,
                            position,
                            key,
                            index,
                            delta,
                        });
                    });
                }
                if let Some(n) = self.nudge {
                    if (n.layer, n.position, n.key) == (layer, position, key) {
                        stored[n.index] += n.delta;
                    }
                }
            }
        }
        assert_eq!(self.kv[layer].len(), position, "tokens arrive in order");
        self.kv[layer].push((k, v));
        let mut concat = vec![0.0; x.len()];
        for (h, tokens) in retained.iter().enumerate() {
            let span = h * hd..(h + 1) * hd;
            let scores: Vec<f64> = tokens
                .iter()
                .map(|&n| {
                    let key = &self.kv[layer][n].0[span.clone()];
                    let dot: f64 = q[span.clone()].iter().zip(key).map(|(a, b)| a * b).sum();
                    dot / (hd as f64).sqrt()
                })
                .collect();
            let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let exps: Vec<f64> = scores.iter().map(|s| (s - max).exp()).collect();
            let sum: f64 = exps.iter().sum();
            for (&n, e) in tokens.iter().zip(exps) {
                let value = &self.kv[layer][n].1[span.clone()];
                for (o, vi) in concat[span.clone()].iter_mut().zip(value) {
                    *o += e / sum * vi;
                }
            }
        }
        matvec(&lw.wo, &concat)
    }
}

/// The largest elementwise gap between two logit vectors.
fn max_gap(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Every `(layer, head)`'s retained tokens, in entry order.
fn retained(cache: &dyn KvCacheBackend, layers: usize, heads: usize) -> Retained {
    (0..layers)
        .map(|layer| {
            (0..heads)
                .map(|head| {
                    let mut tokens = Vec::new();
                    cache.for_each_entry(layer, head, &mut |e| tokens.push(e.token));
                    tokens
                })
                .collect()
        })
        .collect()
}

/// Serves a teacher-forced, fault-free run of `policy` token by token and
/// returns, per token, its input, the served logits and the retained sets
/// its attention read.
fn served_run(
    model: &SurrogateModel,
    policy: CachePolicy,
    budget: CacheBudget,
    prompt: &[usize],
    forced: &[usize],
) -> Vec<(usize, Vec<f32>, Retained)> {
    let dims = *model.dims();
    let mut cache = policy.build(budget, dims.heads);
    let mut state = GenerationState::new();
    let mut steps = Vec::new();
    for &token in prompt {
        prefill_extend(model, &mut state, &[token], cache.as_mut(), &mut NoFaults);
        let sets = retained(&*cache, dims.layers, dims.heads);
        steps.push((token, state.last_logits().to_vec(), sets));
    }
    cache.finish_prefill(state.position());
    state.end_pass();
    for &token in forced {
        decode_step(
            model,
            &mut state,
            Some(token),
            cache.as_mut(),
            &mut NoFaults,
        );
        let logits = state.last_logits().to_vec();
        steps.push((token, logits, retained(&*cache, dims.layers, dims.heads)));
    }
    steps
}

#[test]
fn served_logits_match_the_f64_oracle_for_every_policy_without_faults() {
    let model = SurrogateModel::new(ModelConfig::for_kind(ModelKind::Llama2_7b), 7);
    let dims = *model.dims();
    let vocab = dims.vocab;
    let prompt: Vec<usize> = (0..16).map(|t| (11 + 37 * t) % vocab).collect();
    let forced: Vec<usize> = (0..24).map(|t| (5 + 101 * t) % vocab).collect();
    let budget = CacheBudget::new(10)
        .with_recent_window(3)
        .with_sink_tokens(2);
    for policy in [
        CachePolicy::Full,
        CachePolicy::StreamingLlm,
        CachePolicy::H2o,
        CachePolicy::Aerp,
        CachePolicy::QuaRotInt4,
    ] {
        let steps = served_run(&model, policy, budget, &prompt, &forced);
        let int4 = policy == CachePolicy::QuaRotInt4;
        let mut oracle = Oracle::new(model.weights(), dims.heads, int4, None);
        let expected: Vec<Vec<f64>> = steps
            .iter()
            .enumerate()
            .map(|(position, (token, _, sets))| oracle.forward(*token, position, sets))
            .collect();
        // Each code at a rounding tie widens every step's bound by what
        // moving it one step to the other side does to that step's logits.
        let mut slack = vec![0.0f64; steps.len()];
        for &tie in &oracle.ties {
            let mut moved = Oracle::new(model.weights(), dims.heads, int4, Some(tie));
            for (position, (token, _, sets)) in steps.iter().enumerate() {
                let logits = moved.forward(*token, position, sets);
                slack[position] += max_gap(&logits, &expected[position]);
            }
        }
        let mut evicted = false;
        for (position, (_, served, sets)) in steps.iter().enumerate() {
            evicted |= sets
                .iter()
                .flatten()
                .any(|tokens| tokens.len() < position + 1);
            let expected = &expected[position];
            let scale = expected.iter().fold(1.0f64, |m, l| m.max(l.abs()));
            let served: Vec<f64> = served.iter().map(|&l| l as f64).collect();
            let gap = max_gap(&served, expected);
            let bound = LOGIT_TOLERANCE * scale + slack[position];
            assert!(
                gap <= bound,
                "{policy:?} token {position}: served logits are {gap:e} from the oracle's \
                 (bound {bound:e})"
            );
        }
        assert_eq!(
            evicted,
            !matches!(policy, CachePolicy::Full | CachePolicy::QuaRotInt4),
            "{policy:?}: a budgeted policy must evict in this run"
        );
    }
}
