//! AERP's stored input rows are read once per layer.
//!
//! A popular token's input vector `x` is stored once per layer (§4.1.2), so
//! the attention pass copies and corrupts each stored row once per layer,
//! whatever number of heads retain it, and recomputes K/V from that one read
//! for each retaining head.  These tests count the reads from outside the
//! pass and pin which token group a row shared by differently-ranking heads
//! is read at.

use kelle::cache::CacheBudget;
use kelle::edram::{RefreshPolicy, RetentionModel};
use kelle::model::fault::BitFlipRates;
use kelle::model::generation::{decode_step, prefill, GenerationState};
use kelle::model::weights::{ModelWeights, WeightGenConfig};
use kelle::model::{
    CacheStats, DecodeScratch, EntryRef, FaultInjector, FaultStats, KvCacheBackend, ModelConfig,
    ModelKind, MultiHeadAttention, NoFaults, PayloadRef, ProbabilisticFaults, SurrogateDims,
    SurrogateModel, TokenId,
};
use kelle::{fault_injector_for_policy, CachePolicy};
use std::collections::BTreeSet;

/// What one forward pass over `cache` reads, counted through
/// `for_each_entry`: `(distinct stored rows, recompute visits, KV entries)`
/// per layer, summed.
fn census(cache: &dyn KvCacheBackend, layers: usize, heads: usize) -> (usize, usize, usize) {
    let (mut rows, mut visits, mut kv) = (0, 0, 0);
    for layer in 0..layers {
        let mut distinct = BTreeSet::new();
        for head in 0..heads {
            cache.for_each_entry(layer, head, &mut |e| match e.payload {
                PayloadRef::Kv { .. } => kv += 1,
                PayloadRef::Recompute { .. } => {
                    visits += 1;
                    distinct.insert(e.token);
                }
            });
        }
        rows += distinct.len();
    }
    (rows, visits, kv)
}

/// Every faulted decode step examines each distinct stored row of a layer
/// once (`channels` words) plus each head's KV entries (`2 × head_dim` words
/// each) — not one row read per retaining head.  AERP stores every token it
/// keeps as a row (a token enters all heads, so it is popular at once); the
/// other policies store KV only, and are held to the same count.
#[test]
fn faulted_pass_examines_each_stored_row_once_per_layer() {
    let model = SurrogateModel::new(ModelConfig::for_kind(ModelKind::Llama2_7b), 7);
    let dims = *model.dims();
    let head_dim = dims.channels / dims.heads;
    let budget = CacheBudget::new(16)
        .with_recent_window(4)
        .with_sink_tokens(2);
    let prompt: Vec<usize> = (0..24).map(|t| (3 + 5 * t) % 97).collect();

    for policy in CachePolicy::all() {
        let mut cache = policy.build(budget, dims.heads);
        let mut faults = fault_injector_for_policy(
            &RefreshPolicy::two_dimensional_default(),
            &RetentionModel::default(),
            7,
        );
        let mut state = GenerationState::new();
        prefill(&model, &mut state, &prompt, cache.as_mut(), &mut faults);

        let (mut rows, mut visits, mut kv) = (0, 0, 0);
        for step in 0..24 {
            let before = faults.stats().words_examined;
            decode_step(&model, &mut state, None, cache.as_mut(), &mut faults);
            // Observing attention moves no entry, so what the cache holds
            // after the step is what each layer's pass read.
            let (step_rows, step_visits, step_kv) = census(cache.as_ref(), dims.layers, dims.heads);
            assert_eq!(
                faults.stats().words_examined - before,
                (step_rows * dims.channels + step_kv * 2 * head_dim) as u64,
                "{} step {step}: {step_rows} rows, {step_kv} KV entries",
                policy.name()
            );
            rows += step_rows;
            visits += step_visits;
            kv += step_kv;
        }
        assert!(faults.stats().bits_flipped > 0, "{}", policy.name());
        if policy == CachePolicy::Aerp {
            // Rows were read, and each was retained by several heads.
            assert!(
                visits > 2 * rows && rows > 0,
                "{visits} visits of {rows} rows"
            );
        } else {
            assert!(
                kv > 0 && rows == 0,
                "{}: {kv} KV, {rows} rows",
                policy.name()
            );
        }
    }
}

/// Stores each token's input row once and serves it to every head as a
/// `Recompute` entry; `high(head, token)` is the head's ranking of it.
#[derive(Debug)]
struct RowsOnly {
    rows: Vec<Vec<f32>>,
    high: fn(usize, TokenId) -> bool,
}

impl KvCacheBackend for RowsOnly {
    fn insert(&mut self, _: usize, token: TokenId, x: &[f32], _: &[f32], _: &[f32], _: usize) {
        assert_eq!(token, self.rows.len());
        self.rows.push(x.to_vec());
    }

    fn for_each_entry(&self, _: usize, head: usize, visit: &mut dyn for<'e> FnMut(EntryRef<'e>)) {
        for (token, x) in self.rows.iter().enumerate() {
            visit(EntryRef {
                token,
                payload: PayloadRef::Recompute { x, slot: token },
                high_score: (self.high)(head, token),
            });
        }
    }

    fn observe_attention(&mut self, _: usize, _: usize, _: &[(TokenId, f32)]) {}

    fn stats(&self) -> CacheStats {
        CacheStats::default()
    }

    fn name(&self) -> &'static str {
        "rows-only"
    }
}

/// One stored row sits in one refresh domain: it is read at the most
/// demanding group any retaining head gives it.  With high-score reads
/// intact and low-score reads flipping every bit, a row that just one head
/// ranks high reads intact in every head.
#[test]
fn a_row_that_one_head_ranks_high_reads_intact_in_every_head() {
    const HEADS: usize = 4;
    const TOKENS: usize = 6;
    let dims = SurrogateDims {
        layers: 1,
        heads: HEADS,
        channels: 32,
        ffn_dim: 64,
        vocab: 64,
    };
    let weights = ModelWeights::generate(&dims, &WeightGenConfig::default(), 3);
    let attention = MultiHeadAttention::new(&weights.layers[0], HEADS);
    let rates = BitFlipRates {
        hst_msb: 0.0,
        hst_lsb: 0.0,
        lst_msb: 1.0,
        lst_lsb: 1.0,
    };
    // The block output and every head's labels, as bits.
    let run = |high: fn(usize, TokenId) -> bool, faults: &mut dyn FaultInjector| {
        let mut cache = RowsOnly {
            rows: Vec::new(),
            high,
        };
        let mut scratch = DecodeScratch::new();
        for pos in 0..TOKENS {
            let x = weights.embed(pos, pos);
            attention.forward_with(0, pos, pos, &x, &mut cache, faults, &mut scratch);
        }
        let mut bits: Vec<u32> = scratch.output().iter().map(|v| v.to_bits()).collect();
        for labels in scratch.attention_labels() {
            bits.extend(labels.iter().map(|&(t, p)| t as u32 ^ p.to_bits()));
        }
        bits
    };
    // Every row read, once per layer per pass: 1 + 2 + … + TOKENS rows.
    let words = (TOKENS * (TOKENS + 1) / 2 * dims.channels) as u64;

    // Each row is ranked high by exactly one head, a different one per row.
    let one_head: fn(usize, TokenId) -> bool = |head, token| head == token % HEADS;
    let mut faults = ProbabilisticFaults::new(rates, 5);
    assert_eq!(run(one_head, &mut faults), run(one_head, &mut NoFaults));
    assert_eq!(
        faults.stats(),
        FaultStats {
            words_examined: words,
            bits_flipped: 0,
        }
    );

    // The control: no head ranks a row high, so every read flips every bit.
    let no_head: fn(usize, TokenId) -> bool = |_, _| false;
    let mut faults = ProbabilisticFaults::new(rates, 5);
    assert_ne!(run(no_head, &mut faults), run(no_head, &mut NoFaults));
    assert_eq!(
        faults.stats(),
        FaultStats {
            words_examined: words,
            bits_flipped: 16 * words,
        }
    );
}
