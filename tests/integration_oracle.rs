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
//! arena or scratch.
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
//! Under retention faults the oracle reads each row of an earlier pass as
//! the cells fail it: a wrapping backend records, before each head reports
//! its attention, the entries its read saw — token, HST/LST label and the
//! stored rows — and the oracle asks the public cell map
//! ([`CellMap::fail_row`]) for each row's failing words at its group.  For
//! AERP it recomputes the head's key and value in f64 from its own `x` with
//! those words read as `x′`, the row at the group of its most demanding
//! head; for `full` it reads its own key and value with the failing words
//! of the stored key and value rows replaced.  `aerp` and `full` are held to
//! the no-fault bound under uniform 1 % flips, which fail exponent bits,
//! and under 2DRP, whose groups differ.  A row read at the other group, or
//! a retaining head left uncorrected, moves a logit far past it.
//!
//! The bound is an f32 one: the served forward rounds every product and sum
//! to f32 (unit roundoff 2⁻²⁴ ≈ 6·10⁻⁸) through four layers of 64-wide dot
//! products, softmax and RMSNorm, while the oracle's rounding is ≈10⁻¹⁶.  The
//! largest logit of a step here is 2.6–4.2, and the largest gap a step shows
//! is 1.5·10⁻⁵ of it, so the bound of 10⁻⁴ of it leaves a margin of about
//! seven.  A wrong rotation, a missing score scale or a retained set off by
//! one token moves a logit by orders of magnitude more.

use kelle::cache::{CacheBudget, CachePolicy, CacheStats, HeadView, KvCacheBackend, PayloadRef};
use kelle::edram::{RefreshPolicy, RetentionModel};
use kelle::model::fault::{
    BitFlipRates, CellKey, CellMap, FaultInjector, ProbabilisticFaults, RowFailures, TokenGroup,
};
use kelle::model::generation::{decode_step, prefill_extend, GenerationState};
use kelle::model::weights::{LayerWeights, ModelWeights};
use kelle::model::{ModelConfig, ModelKind, NoFaults, SurrogateModel, TokenId};
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
    /// `[layer][position]`: the position's normalized layer input `x`.
    xs: Vec<Vec<Vec<f64>>>,
}

/// The cells a faulted step read through, and what each head's read saw.
type Faulted<'a> = Option<(&'a CellMap, &'a StepReads)>;

impl<'w> Oracle<'w> {
    fn new(weights: &'w ModelWeights, heads: usize, int4: bool, nudge: Option<Nudge>) -> Self {
        Oracle {
            weights,
            heads,
            int4,
            nudge,
            ties: Vec::new(),
            kv: vec![Vec::new(); weights.layers.len()],
            xs: vec![Vec::new(); weights.layers.len()],
        }
    }

    /// The logits of `token` at `position`, each head of each layer
    /// attending over `retained[layer][head]`, reading the rows of earlier
    /// positions through `faulted`'s cells if given.
    fn forward(
        &mut self,
        token: usize,
        position: usize,
        retained: &Retained,
        faulted: Faulted,
    ) -> Vec<f64> {
        let w = self.weights;
        let embedding = w.embedding.row(token).expect("token in vocabulary");
        let mut hidden: Vec<f64> = embedding.iter().map(|&e| e as f64).collect();
        if position == 0 {
            for (h, &s) in hidden.iter_mut().zip(&w.sink_direction) {
                *h += s as f64;
            }
        }
        for (layer, lw) in w.layers.iter().enumerate() {
            let attn = self.attention(layer, lw, &hidden, position, &retained[layer], faulted);
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
        faulted: Faulted,
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
        self.xs[layer].push(x.clone());
        let mut concat = vec![0.0; x.len()];
        for (h, tokens) in retained.iter().enumerate() {
            let span = h * hd..(h + 1) * hd;
            let read: Vec<(Vec<f64>, Vec<f64>)> = tokens
                .iter()
                .enumerate()
                .map(|(i, &n)| match faulted {
                    Some(cells) if n < position => self.read(cells, (layer, h), (i, n), lw),
                    _ => {
                        let (key, value) = &self.kv[layer][n];
                        (key[span.clone()].to_vec(), value[span.clone()].to_vec())
                    }
                })
                .collect();
            let scores: Vec<f64> = read
                .iter()
                .map(|(key, _)| {
                    let dot: f64 = q[span.clone()].iter().zip(key).map(|(a, b)| a * b).sum();
                    dot / (hd as f64).sqrt()
                })
                .collect();
            let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let exps: Vec<f64> = scores.iter().map(|s| (s - max).exp()).collect();
            let sum: f64 = exps.iter().sum();
            for ((_, value), e) in read.iter().zip(exps) {
                for (o, vi) in concat[span.clone()].iter_mut().zip(value) {
                    *o += e / sum * vi;
                }
            }
        }
        matvec(&lw.wo, &concat)
    }

    /// Head `h`'s key and value of entry `i`, token `n`, at `layer` as an
    /// earlier pass's row reads through `cells`: under AERP recomputed from
    /// the oracle's own `x` with the row's failing words read as `x′`, at
    /// the group of its most demanding head; for a KV-format head its own
    /// key and value with the failing words of the stored rows replaced, at
    /// the head's group.
    fn read(
        &self,
        (map, reads): (&CellMap, &StepReads),
        (layer, h): (usize, usize),
        (i, n): (usize, usize),
        lw: &LayerWeights,
    ) -> (Vec<f64>, Vec<f64>) {
        let group = |high: bool| {
            if high {
                TokenGroup::HighScore
            } else {
                TokenGroup::LowScore
            }
        };
        let head = &reads[layer][h];
        assert_eq!(
            head.tokens[i], n,
            "layer {layer} head {h}: the read's entry {i}"
        );
        let hd = head.keys[i].len();
        let span = h * hd..(h + 1) * hd;
        let mut failures = RowFailures::default();
        if head.xs.is_empty() {
            let (key, value) = &self.kv[layer][n];
            let mut read = [key[span.clone()].to_vec(), value[span].to_vec()];
            let keys = [CellKey::key(layer, h, n), CellKey::value(layer, h, n)];
            for ((read, stored), cells) in read
                .iter_mut()
                .zip([&head.keys[i], &head.values[i]])
                .zip(keys)
            {
                map.fail_row(cells, stored, &mut failures);
                for &(j, x) in failures.reads(group(head.high[i])) {
                    read[j as usize] = f64::from(x);
                }
            }
            let [key, value] = read;
            return (key, value);
        }
        let high = reads[layer].iter().any(|other| {
            other
                .tokens
                .iter()
                .zip(&other.high)
                .any(|(&t, &high)| t == n && high)
        });
        map.fail_row(
            CellKey::input(layer, reads[layer].len(), n),
            &head.xs[i],
            &mut failures,
        );
        let mut x = self.xs[layer][n].clone();
        for &(j, read) in failures.reads(group(high)) {
            x[j as usize] = f64::from(read);
        }
        let project = |w: &Matrix| -> Vec<f64> {
            span.clone()
                .map(|r| (0..w.cols()).map(|c| w.get(r, c) as f64 * x[c]).sum())
                .collect()
        };
        let mut key = project(&lw.wk);
        rope(&mut key, n, hd);
        (key, project(&lw.wv))
    }
}

/// One head's entries as one served step's attention read them, in entry
/// order: token, HST label, the stored key and value rows and, under AERP,
/// the stored input row.
#[derive(Debug, Clone, Default)]
struct HeadRead {
    tokens: Vec<usize>,
    high: Vec<bool>,
    keys: Vec<Vec<f32>>,
    values: Vec<Vec<f32>>,
    xs: Vec<Vec<f32>>,
}

/// Per layer and head, what one served step's attention read.
type StepReads = Vec<Vec<HeadRead>>;

/// A backend that records, before each head reports its attention, the
/// entries the head's read saw: nothing between a head's read and its
/// report changes them (the backend contract).
#[derive(Debug)]
struct Reads {
    inner: Box<dyn KvCacheBackend>,
    step: StepReads,
}

impl KvCacheBackend for Reads {
    fn insert(&mut self, layer: usize, token: TokenId, x: &[f32], k: &[f32], v: &[f32], d: usize) {
        self.inner.insert(layer, token, x, k, v, d);
    }

    fn head(&self, layer: usize, head: usize) -> HeadView<'_> {
        self.inner.head(layer, head)
    }

    fn observe_attention(&mut self, layer: usize, head: usize, scores: &[(TokenId, f32)]) {
        if self.step.len() <= layer {
            self.step.resize_with(layer + 1, Vec::new);
        }
        if self.step[layer].len() <= head {
            self.step[layer].resize_with(head + 1, HeadRead::default);
        }
        let read = &mut self.step[layer][head];
        *read = HeadRead::default();
        self.inner.for_each_entry(layer, head, &mut |entry| {
            read.tokens.push(entry.token);
            read.high.push(entry.high_score());
            let (key, value) = match entry.payload {
                PayloadRef::Kv { key, value } => (key, value),
                PayloadRef::Recompute { x, key, value, .. } => {
                    read.xs.push(x.to_vec());
                    (key, value)
                }
            };
            read.keys.push(key.to_vec());
            read.values.push(value.to_vec());
        });
        self.inner.observe_attention(layer, head, scores);
    }

    fn finish_prefill(&mut self, context_len: usize) {
        self.inner.finish_prefill(context_len);
    }

    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
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

/// One served token: its input, the served logits, the retained sets its
/// attention read and, for a decode step, what each head's read saw.
type Step = (usize, Vec<f32>, Retained, Option<StepReads>);

/// Serves a teacher-forced run of `policy` under `faults` token by token and
/// returns every token's [`Step`].  The prompt is one pass, so only decode
/// steps read rows of an earlier pass.
fn served_run(
    model: &SurrogateModel,
    policy: CachePolicy,
    budget: CacheBudget,
    (prompt, forced): (&[usize], &[usize]),
    faults: &mut dyn FaultInjector,
) -> Vec<Step> {
    let dims = *model.dims();
    let mut cache = Reads {
        inner: policy.build(budget, dims.heads),
        step: Vec::new(),
    };
    let mut state = GenerationState::new();
    let mut steps = Vec::new();
    for &token in prompt {
        prefill_extend(model, &mut state, &[token], &mut cache, faults);
        let sets = retained(&*cache.inner, dims.layers, dims.heads);
        steps.push((token, state.last_logits().to_vec(), sets, None));
    }
    cache.finish_prefill(state.position());
    state.end_pass();
    for &token in forced {
        decode_step(model, &mut state, Some(token), &mut cache, faults);
        let logits = state.last_logits().to_vec();
        let sets = retained(&*cache.inner, dims.layers, dims.heads);
        steps.push((token, logits, sets, Some(std::mem::take(&mut cache.step))));
    }
    steps
}

/// Asserts that every served logit of `steps` is within the oracle's bound,
/// the oracle reading earlier rows through `map`'s cells if given, and
/// returns each step's gap as a fraction of its largest logit.
fn assert_within_bound(
    what: &str,
    model: &SurrogateModel,
    steps: &[Step],
    map: Option<&CellMap>,
) -> Vec<f64> {
    let mut oracle = Oracle::new(model.weights(), model.dims().heads, false, None);
    steps
        .iter()
        .enumerate()
        .map(|(position, (token, served, sets, reads))| {
            let faulted = map.zip(reads.as_ref());
            let expected = oracle.forward(*token, position, sets, faulted);
            let scale = expected.iter().fold(1.0f64, |m, l| m.max(l.abs()));
            let served: Vec<f64> = served.iter().map(|&l| l as f64).collect();
            let gap = max_gap(&served, &expected);
            assert!(
                gap <= LOGIT_TOLERANCE * scale,
                "{what} token {position}: served logits are {gap:e} from the oracle's \
                 (bound {:e})",
                LOGIT_TOLERANCE * scale
            );
            gap / scale
        })
        .collect()
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
        let steps = served_run(&model, policy, budget, (&prompt, &forced), &mut NoFaults);
        let int4 = policy == CachePolicy::QuaRotInt4;
        let mut oracle = Oracle::new(model.weights(), dims.heads, int4, None);
        let expected: Vec<Vec<f64>> = steps
            .iter()
            .enumerate()
            .map(|(position, (token, _, sets, _))| oracle.forward(*token, position, sets, None))
            .collect();
        // Each code at a rounding tie widens every step's bound by what
        // moving it one step to the other side does to that step's logits.
        let mut slack = vec![0.0f64; steps.len()];
        for &tie in &oracle.ties {
            let mut moved = Oracle::new(model.weights(), dims.heads, int4, Some(tie));
            for (position, (token, _, sets, _)) in steps.iter().enumerate() {
                let logits = moved.forward(*token, position, sets, None);
                slack[position] += max_gap(&logits, &expected[position]);
            }
        }
        let mut evicted = false;
        for (position, (_, served, sets, _)) in steps.iter().enumerate() {
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

/// AERP and `full` under uniform 1 % flips (exponent bits included) and
/// under 2DRP (whose two groups fail different sets): every decode step
/// reads the rows of earlier passes through their cells, and every served
/// logit is within the no-fault bound of the oracle reading the same cells.
#[test]
fn served_logits_match_the_f64_oracle_under_faults() {
    let model = SurrogateModel::new(ModelConfig::for_kind(ModelKind::Llama2_7b), 7);
    let vocab = model.dims().vocab;
    let prompt: Vec<usize> = (0..16).map(|t| (11 + 37 * t) % vocab).collect();
    let forced: Vec<usize> = (0..24).map(|t| (5 + 101 * t) % vocab).collect();
    let budget = CacheBudget::new(10)
        .with_recent_window(3)
        .with_sink_tokens(2);
    let two_drp =
        RefreshPolicy::two_dimensional_default().bit_flip_rates(&RetentionModel::default());
    for (rates, name) in [
        (BitFlipRates::uniform(1e-2), "uniform 1e-2"),
        (two_drp, "2DRP"),
    ] {
        for policy in [CachePolicy::Aerp, CachePolicy::Full] {
            let what = format!("{policy:?} under {name}");
            let mut faults = ProbabilisticFaults::new(rates, 11);
            let steps = served_run(&model, policy, budget, (&prompt, &forced), &mut faults);
            let map = faults
                .cell_map()
                .expect("a probabilistic injector has cells");
            assert!(
                faults.stats().bits_flipped > 1_000,
                "{what}: {:?}",
                faults.stats()
            );
            let gaps = assert_within_bound(&what, &model, &steps, Some(map));
            let largest = gaps.iter().copied().fold(0.0, f64::max);
            // The cells move the logits: the no-fault oracle is far off.
            let clean = largest_gap_to_an_intact_read(&model, &steps);
            assert!(
                clean > 100.0 * LOGIT_TOLERANCE,
                "{what}: the faults moved no logit ({clean:e} against {largest:e})"
            );
        }
    }
}

/// The largest gap, as a fraction of its step's largest logit, between the
/// served logits of `steps` and an oracle that reads every row intact.
fn largest_gap_to_an_intact_read(model: &SurrogateModel, steps: &[Step]) -> f64 {
    let mut oracle = Oracle::new(model.weights(), model.dims().heads, false, None);
    steps
        .iter()
        .enumerate()
        .map(|(position, (token, served, sets, _))| {
            let expected = oracle.forward(*token, position, sets, None);
            let scale = expected.iter().fold(1.0f64, |m, l| m.max(l.abs()));
            let served: Vec<f64> = served.iter().map(|&l| l as f64).collect();
            max_gap(&served, &expected) / scale
        })
        .fold(0.0, f64::max)
}
