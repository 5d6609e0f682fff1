//! Property-based tests (proptest) on the core invariants of the
//! reproduction, spanning several crates.

use kelle::cache::{CacheBudget, KvCacheBackend};
use kelle::edram::{CapacityLedger, RefreshPolicy, RetentionModel};
use kelle::model::fault::NoFaults;
use kelle::model::{ModelConfig, ModelKind, PayloadRef, SurrogateModel};
use kelle::tensor::{ops, QuantFormat, QuantizedVector};
use kelle::{
    AdmissionPolicy, CachePolicy, KelleEngine, SchedulerConfig, ServeOptions, ServeRequest,
};
use proptest::prelude::*;

fn surrogate() -> SurrogateModel {
    SurrogateModel::new(ModelConfig::for_kind(ModelKind::Llama2_7b), 17)
}

/// A pre-computed context token: (position, input vector, flat head-major
/// keys, flat head-major values).
type PreparedEntry = (usize, Vec<f32>, Vec<f32>, Vec<f32>);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// §2.2: Eq. 1 and Eq. 2 are invariant to the relative order of the KV
    /// pairs stored in the cache.  Inserting the same per-head KV entries in a
    /// different order (as happens when Kelle reuses an evicted token's slot)
    /// must not change the attention output for a fixed query token.
    #[test]
    fn attention_is_permutation_invariant(seed in 0u64..1000) {
        use kelle::model::attention::{DecodeScratch, MultiHeadAttention};
        let model = surrogate();
        let heads = model.dims().heads;
        let weights = &model.weights().layers[0];
        let attn = MultiHeadAttention::new(weights, heads);

        // Pre-compute the per-head KV entries of 8 context tokens once.
        let vocab = model.dims().vocab;
        let entries: Vec<PreparedEntry> = (0..8)
            .map(|position| {
                let token = ((seed as usize) * 31 + position * 7) % vocab;
                let x = model.weights().embed(token, position);
                let (mut k, mut v) = (Vec::new(), Vec::new());
                attn.project_kv_into(&x, position, &mut k, &mut v);
                (position, x, k, v)
            })
            .collect();

        let head_dim = model.dims().channels / heads;
        let output_for = |order: &[usize]| {
            let mut cache = CachePolicy::Full.build(CacheBudget::new(usize::MAX), heads);
            let mut faults = NoFaults;
            for &idx in order {
                let (position, x, k, v) = &entries[idx];
                cache.insert(0, *position, x, k, v, head_dim);
            }
            let query_x = model.weights().embed(3 % vocab, 8);
            let mut scratch = DecodeScratch::new();
            attn.forward_with(0, 8, 8, &query_x, &mut *cache, &mut faults, &mut scratch);
            scratch.output().to_vec()
        };

        let forward: Vec<usize> = (0..entries.len()).collect();
        let mut reversed = forward.clone();
        reversed.reverse();
        let a = output_for(&forward);
        let b = output_for(&reversed);
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert!((x - y).abs() < 1e-4 * (1.0 + x.abs().max(y.abs())), "{x} vs {y}");
        }
    }

    /// No budgeted policy (StreamingLLM, H2O, AERP) ever exceeds its
    /// per-head budget once decoding starts, for any budget and insertion
    /// count.
    #[test]
    fn aerp_budget_never_exceeded(
        budget in 2usize..32,
        tokens in 1usize..80,
        heads in 1usize..6,
        policy in 0usize..3,
    ) {
        let policy = [CachePolicy::StreamingLlm, CachePolicy::H2o, CachePolicy::Aerp][policy];
        let mut cache = policy.build(CacheBudget::new(budget), heads);
        cache.finish_prefill(0);
        let head_dim = 4;
        for t in 0..tokens {
            let keys: Vec<f32> = (0..heads)
                .flat_map(|h| vec![(t + h) as f32; head_dim])
                .collect();
            let values = keys.clone();
            cache.insert(0, t, &vec![t as f32; head_dim * heads], &keys, &values, head_dim);
            let mut scores: Vec<(usize, f32)> = Vec::new();
            cache.for_each_entry(0, 0, &mut |e| scores.push((e.token, 1.0 / (e.token + 1) as f32)));
            cache.observe_attention(0, 0, &scores);
            for head in 0..heads {
                prop_assert!(cache.entry_count(0, head) <= budget);
            }
        }
        prop_assert!(cache.stats().insertions as usize == tokens);
    }

    /// Quantize/dequantize round trips are bounded by the format's step size.
    #[test]
    fn quantization_error_is_bounded(values in proptest::collection::vec(-4.0f32..4.0, 1..64)) {
        for format in [QuantFormat::Fp16, QuantFormat::Int8, QuantFormat::Int4] {
            let q = QuantizedVector::quantize(&values, format).unwrap();
            let max_abs = values.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let bound = match format {
                QuantFormat::Fp16 => (max_abs * 1e-3).max(1e-3),
                QuantFormat::Int8 => (max_abs / 127.0) * 0.51 + 1e-6,
                QuantFormat::Int4 => (max_abs / 7.0) * 0.51 + 1e-6,
                _ => 1.0,
            };
            for (orig, deq) in values.iter().zip(q.dequantize().iter()) {
                prop_assert!((orig - deq).abs() <= bound, "{format:?}: {orig} -> {deq}");
            }
        }
    }

    /// Softmax output is always a probability distribution, and the
    /// consolidated kernel agrees with an independently written streaming
    /// (Softermax-style, running-max with rescaled sums) realization — the
    /// hardware-friendly formulation of the SFU.
    #[test]
    fn softmax_invariants(logits in proptest::collection::vec(-30.0f32..30.0, 1..128)) {
        let probs = ops::softmax(&logits);
        let sum: f32 = probs.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(probs.iter().all(|p| *p >= 0.0));

        // Independent streaming realization (single pass, running rescale).
        let mut running_max = f32::NEG_INFINITY;
        let mut running_sum = 0.0f32;
        for &x in &logits {
            if x > running_max {
                running_sum *= (running_max - x).exp();
                running_max = x;
            }
            running_sum += (x - running_max).exp();
        }
        for (x, p) in logits.iter().zip(probs.iter()) {
            let streaming = (x - running_max).exp() / running_sum;
            prop_assert!((streaming - p).abs() < 1e-4);
        }
    }

    /// Retention-failure rates are monotone in the refresh interval, and every
    /// refresh policy produces rates consistent with its intervals.
    #[test]
    fn retention_failure_monotone(a in 46.0f64..50_000.0, b in 46.0f64..50_000.0) {
        let model = RetentionModel::default();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(model.failure_rate(lo) <= model.failure_rate(hi) + 1e-12);
        let rates = RefreshPolicy::Uniform(hi).bit_flip_rates(&model);
        prop_assert!((rates.hst_msb - model.failure_rate(hi)).abs() < 1e-12);
    }

    /// The accumulated-attention eviction (Eq. 3) evicts a token whose
    /// accumulated score is minimal: H2O and AERP each take `N` tokens in
    /// pre-fill, observe one score per token, keep all `N` through
    /// `finish_prefill`, and on the next insert the token that leaves has
    /// the lowest score, the oldest of any tie.
    #[test]
    fn eviction_victim_has_minimal_score(scores in proptest::collection::vec(0.0f32..1.0, 4..12)) {
        let n = scores.len();
        for policy in [CachePolicy::H2o, CachePolicy::Aerp] {
            let mut cache = policy.build(CacheBudget::new(n), 1);
            let insert = |cache: &mut dyn KvCacheBackend, t: usize| {
                cache.insert(0, t, &[t as f32; 4], &[t as f32; 4], &[t as f32; 4], 4);
            };
            for t in 0..n {
                insert(cache.as_mut(), t);
            }
            let labelled: Vec<(usize, f32)> = scores.iter().copied().enumerate().collect();
            cache.observe_attention(0, 0, &labelled);
            cache.finish_prefill(n);
            prop_assert_eq!(cache.stats().evictions, 0);
            insert(cache.as_mut(), n);
            let mut kept = vec![false; n + 1];
            cache.for_each_entry(0, 0, &mut |e| kept[e.token] = true);
            let evicted: Vec<usize> = (0..n).filter(|&t| !kept[t]).collect();
            prop_assert_eq!(evicted.len(), 1, "{}", cache.name());
            let victim = evicted[0];
            let min = scores.iter().copied().fold(f32::INFINITY, f32::min);
            prop_assert_eq!(scores[victim], min);
            prop_assert_eq!(scores.iter().position(|&s| s == min), Some(victim));
        }
    }

    /// The capacity ledger's accounting invariants hold for any interleaving
    /// of reserve / force-reserve / grow / release: live bytes equal the sum
    /// of outstanding leases (so they can never go negative), checked
    /// reservations never push the ledger past capacity, and the high-water
    /// mark is a monotone upper bound on live bytes.
    #[test]
    fn ledger_accounting_invariants(
        capacity in 1u64..10_000,
        ops_seed in proptest::collection::vec(0u64..1_000_000, 1..60),
    ) {
        let mut ledger = CapacityLedger::new(capacity);
        let mut live: Vec<(kelle::edram::LeaseId, u64)> = Vec::new();
        let mut expected_live: u64 = 0;
        let mut last_high_water = 0u64;
        for op in ops_seed {
            match op % 4 {
                0 => {
                    let bytes = op % (capacity * 2) + 1;
                    let before = ledger.live_bytes();
                    match ledger.reserve(bytes) {
                        Ok(lease) => {
                            prop_assert!(before + bytes <= capacity,
                                "checked reserve exceeded capacity");
                            live.push((lease, bytes));
                            expected_live += bytes;
                        }
                        Err(_) => {
                            prop_assert!(before + bytes > capacity,
                                "fitting reservation was refused");
                            prop_assert_eq!(ledger.live_bytes(), before);
                        }
                    }
                }
                1 => {
                    let bytes = op % (capacity * 2) + 1;
                    let lease = ledger.force_reserve(bytes);
                    live.push((lease, bytes));
                    expected_live += bytes;
                }
                2 => {
                    if let Some(entry) = live.last_mut() {
                        let growth = op % 500;
                        ledger.grow(entry.0, growth);
                        entry.1 += growth;
                        expected_live += growth;
                    }
                }
                _ => {
                    if !live.is_empty() {
                        let (lease, bytes) = live.swap_remove((op as usize / 4) % live.len());
                        prop_assert_eq!(ledger.release(lease), bytes);
                        expected_live -= bytes;
                    }
                }
            }
            prop_assert_eq!(ledger.live_bytes(), expected_live);
            prop_assert_eq!(
                ledger.oversubscribed_bytes(),
                expected_live.saturating_sub(capacity)
            );
            prop_assert!(ledger.high_water_bytes() >= ledger.live_bytes());
            prop_assert!(ledger.high_water_bytes() >= last_high_water);
            last_high_water = ledger.high_water_bytes();
            prop_assert_eq!(ledger.active_leases(), live.len());
        }
    }
}

proptest! {
    // Each case drives full surrogate-model decoding for several requests
    // twice, so keep the sample count small.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The serving equivalence guarantee, property-tested: for random request
    /// mixes, random shared-capacity limits and every admission policy,
    /// capacity-limited serving yields per-request token streams identical to
    /// the unbounded scheduler (contention changes cost and ordering, never
    /// sampled tokens).
    #[test]
    fn capacity_limited_serving_matches_unbounded_streams(
        seed in 0u64..1000,
        sessions in 1usize..4,
        capacity_denominator in 1u64..6,
        policy_pick in 0usize..3,
    ) {
        let engine = KelleEngine::builder().policy(CachePolicy::Aerp).seed(7).build();
        let vocab = engine.model().dims().vocab;
        let requests: Vec<ServeRequest> = (0..sessions)
            .map(|i| {
                let prompt_len = 2 + ((seed as usize + i * 3) % 6);
                let decode_len = 1 + ((seed as usize * 7 + i) % 4);
                let prompt: Vec<usize> = (0..prompt_len)
                    .map(|p| (seed as usize * 31 + i * 131 + p * 7) % vocab)
                    .collect();
                ServeRequest::new(prompt, decode_len)
            })
            .collect();

        let unbounded = engine
            .serve(requests.clone(), ServeOptions::new())
            .expect("no chaos configured");

        let total: u64 = requests
            .iter()
            .map(|r| engine.kv_footprint_bytes(r.prompt().len() + r.decode_len()))
            .sum();
        let config = SchedulerConfig::default()
            .with_kv_capacity_bytes((total / capacity_denominator).max(1))
            .with_admission(AdmissionPolicy::all()[policy_pick]);
        let bounded = engine
            .serve(requests, ServeOptions::new().with_scheduler(config))
            .expect("no chaos configured");

        for (a, b) in unbounded.outcomes.iter().zip(bounded.outcomes.iter()) {
            prop_assert_eq!(&a.generated, &b.generated);
            prop_assert_eq!(&a.cache, &b.cache);
        }
        prop_assert_eq!(
            unbounded.stats.tokens_generated,
            bounded.stats.tokens_generated
        );
        prop_assert_eq!(unbounded.stats.evictions, bounded.stats.evictions);
    }
}

/// A visited payload as the bits of what it stores: `[key, value]` for a KV
/// entry, `[x, [slot], key, value]` for a recompute entry.
fn payload_bits(payload: PayloadRef<'_>) -> Vec<Vec<u32>> {
    let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|f| f.to_bits()).collect() };
    match payload {
        PayloadRef::Kv { key, value } => vec![bits(key), bits(value)],
        PayloadRef::Recompute {
            x,
            slot,
            key,
            value,
        } => vec![bits(x), vec![slot as u32], bits(key), bits(value)],
    }
}

/// On every `(layer, head)` of `cache`, `entry_count` equals the number of
/// entries `for_each_entry` visits.
fn assert_entry_count_matches_visits(
    cache: &dyn KvCacheBackend,
    layers: usize,
    heads: usize,
    label: &str,
) {
    for layer in 0..layers {
        for head in 0..heads {
            let mut visits = 0;
            cache.for_each_entry(layer, head, &mut |_| visits += 1);
            assert_eq!(
                cache.entry_count(layer, head),
                visits,
                "{label}: layer {layer} head {head} entry count"
            );
        }
    }
}

/// Every entry `for_each_entry(layer, head)` visits: token, HST/LST label
/// and payload bits.
fn visited_entries(
    cache: &dyn KvCacheBackend,
    layer: usize,
    head: usize,
) -> Vec<(usize, bool, Vec<Vec<u32>>)> {
    let mut entries = Vec::new();
    cache.for_each_entry(layer, head, &mut |e| {
        entries.push((e.token, e.high_score(), payload_bits(e.payload)))
    });
    entries
}

/// The contract that lets attention read every head of a layer before it
/// reports any: on a copy of `cache`, `observe_attention(layer, head)` with a
/// skewed distribution over the head's entries changes nothing that
/// `for_each_entry(layer, h′)` visits for any `h′ ≠ head`.
fn assert_observe_stays_in_its_head(
    cache: &dyn KvCacheBackend,
    layers: usize,
    heads: usize,
    label: &str,
) {
    for layer in 0..layers {
        let before: Vec<_> = (0..heads)
            .map(|h| visited_entries(cache, layer, h))
            .collect();
        for head in 0..heads {
            let scores: Vec<(usize, f32)> = before[head]
                .iter()
                .enumerate()
                .map(|(i, &(token, ..))| (token, 1.0 / (i + 1) as f32))
                .collect();
            let mut observed = cache.clone_box();
            observed.observe_attention(layer, head, &scores);
            for (other, entries) in before.iter().enumerate().filter(|&(h, _)| h != head) {
                assert_eq!(
                    &visited_entries(observed.as_ref(), layer, other),
                    entries,
                    "{label}: observing layer {layer} head {head} moved head {other}"
                );
            }
        }
    }
}

/// Every `(layer, head)`'s view of `cache` and the `for_each_entry` adapter
/// agree entry by entry — token, key, value, slot and stored row, and
/// label, the view's computed here with an eagerly sorted median — and the
/// view's tokens ascend.
fn assert_view_matches_adapter(
    cache: &dyn KvCacheBackend,
    layers: usize,
    heads: usize,
    label: &str,
) {
    let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|f| f.to_bits()).collect() };
    let median = |scores: &[f32]| {
        let mut sorted = scores.to_vec();
        sorted.sort_by(f32::total_cmp);
        sorted
            .get(sorted.len() / 2)
            .copied()
            .unwrap_or(f32::NEG_INFINITY)
    };
    for layer in 0..layers {
        for head in 0..heads {
            let at = format!("{label}: layer {layer} head {head}");
            let view = cache.head(layer, head);
            assert!(
                view.tokens.windows(2).all(|w| w[0] < w[1]),
                "{at}: tokens ascend"
            );
            let hd = view.keys.len().checked_div(view.len()).unwrap_or(0);
            assert_eq!(view.keys.len(), view.len() * hd, "{at}");
            assert_eq!(view.values.len(), view.len() * hd, "{at}");
            let mut visited = 0;
            cache.for_each_entry(layer, head, &mut |e| {
                let i = visited;
                visited += 1;
                assert_eq!(e.token, view.tokens[i], "{at} entry {i}");
                let stored = vec![
                    bits(&view.keys[i * hd..(i + 1) * hd]),
                    bits(&view.values[i * hd..(i + 1) * hd]),
                ];
                let payload = payload_bits(e.payload);
                match view.rows {
                    None => assert_eq!(payload, stored, "{at} entry {i}"),
                    Some(rows) => {
                        let row = vec![bits(rows.x(i)), vec![rows.slots[i] as u32]];
                        assert_eq!(payload, [row, stored].concat(), "{at} entry {i}");
                    }
                }
                assert_eq!(
                    e.high_score(),
                    view.high_score(i, median),
                    "{at} entry {i} label"
                );
            });
            assert_eq!(visited, view.len(), "{at}: entries visited");
        }
    }
}

/// Decodes every policy for `decode_len` steps after a `prompt_len`-token
/// prompt under `budget` (a 4-head surrogate from `seed`), on a cold backend,
/// and on one that replayed a published prefix segment and then decoded past
/// its budget, evicting tokens the replay inserted; `check` sees the backend
/// after every decode step with a label naming it.
fn after_every_step(
    seed: u64,
    budget: CacheBudget,
    prompt_len: usize,
    decode_len: usize,
    check: impl Fn(&dyn KvCacheBackend, usize, usize, &str),
) {
    use kelle::model::fault::{BitFlipRates, ProbabilisticFaults};
    use kelle::model::generation::{decode_step, prefill, prefill_extend, GenerationState};
    use kelle::model::{SegmentRecorder, SurrogateDims};

    let config = ModelConfig::for_kind(ModelKind::Llama2_7b).with_surrogate(SurrogateDims {
        layers: 2,
        heads: 4,
        channels: 32,
        ffn_dim: 64,
        vocab: 96,
    });
    let model = SurrogateModel::new(config, seed);
    let (layers, heads, vocab) = (model.dims().layers, model.dims().heads, model.dims().vocab);
    let prompt: Vec<usize> = (0..prompt_len)
        .map(|p| (seed as usize * 131 + p * 17 + 5) % vocab)
        .collect();
    let (prefix, rest) = prompt.split_at(prompt_len - 1);

    for policy in CachePolicy::all() {
        let mut cold = policy.build(budget, heads);
        let mut state = GenerationState::new();
        prefill(&model, &mut state, &prompt, cold.as_mut(), &mut NoFaults);
        for step in 0..decode_len {
            decode_step(&model, &mut state, None, cold.as_mut(), &mut NoFaults);
            let label = format!("{} cold step {step}", policy.name());
            check(cold.as_ref(), layers, heads, &label);
        }

        // Publish all but the last prompt token, attach the segment to a
        // fresh backend, and decode until the budget forces evictions.
        let mut publisher = policy.build(budget, heads);
        let mut recorder = SegmentRecorder::new(publisher.as_mut());
        let mut published = GenerationState::new();
        prefill_extend(&model, &mut published, prefix, &mut recorder, &mut NoFaults);
        let segment = recorder.finish(
            published.last_logits(),
            ProbabilisticFaults::new(BitFlipRates::zero(), seed),
        );
        let mut hit = policy.build(budget, heads);
        segment.attach_and_replay(hit.as_mut());
        let mut state = GenerationState::new();
        state.adopt_prefix(&segment);
        prefill(&model, &mut state, rest, hit.as_mut(), &mut NoFaults);
        for step in 0..decode_len + budget.max_tokens {
            decode_step(&model, &mut state, None, hit.as_mut(), &mut NoFaults);
            let label = format!("{} hit step {step}", policy.name());
            check(hit.as_ref(), layers, heads, &label);
        }
        if policy == CachePolicy::StreamingLlm {
            // StreamingLLM evicts the oldest non-sink token, which the
            // replayed prefix inserted.
            assert!(hit.stats().evictions > 0, "{label}", label = policy.name());
        }
    }
}

proptest! {
    // Each case decodes every policy twice (cold and behind a published
    // prefix); keep the sample count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The backend visitor contracts hold after every decode step, for every
    /// policy under random prompts, budgets and the eviction schedules they
    /// induce, cold and behind a replayed prefix: `entry_count` equals the
    /// number of entries `for_each_entry` visits, and observing one head's
    /// attention moves nothing another head visits.
    #[test]
    fn entry_visitor_contracts_hold_after_every_step(
        seed in 0u64..1000,
        budget in 4usize..20,
        window in 1usize..6,
        prompt_len in 4usize..20,
        decode_len in 1usize..8,
    ) {
        let budget = CacheBudget::new(budget)
            .with_recent_window(window)
            .with_sink_tokens(1);
        after_every_step(seed, budget, prompt_len, decode_len, |cache, layers, heads, label| {
            assert_entry_count_matches_visits(cache, layers, heads, label);
            assert_observe_stays_in_its_head(cache, layers, heads, label);
        });
    }

    /// The per-head view attention reads and the `for_each_entry` adapter
    /// agree entry by entry after every decode step, for every policy under
    /// random prompts, budgets and eviction schedules, cold and behind a
    /// replayed prefix, and a view's tokens ascend (what lets attention
    /// split a head at the pass start).
    #[test]
    fn head_views_match_the_entry_adapter_after_every_step(
        seed in 0u64..1000,
        budget in 4usize..20,
        window in 1usize..6,
        prompt_len in 4usize..20,
        decode_len in 1usize..8,
    ) {
        let budget = CacheBudget::new(budget)
            .with_recent_window(window)
            .with_sink_tokens(1);
        after_every_step(seed, budget, prompt_len, decode_len, assert_view_matches_adapter);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `kelle_tensor::dot` follows its documented multi-accumulator reference
    /// ordering bit for bit (an independently written realization of the same
    /// ordering must agree exactly), and `Matrix::matvec` rows are plain
    /// `dot` applications of the same kernel.
    #[test]
    fn dot_is_bitwise_stable_against_reference_ordering(
        xs in proptest::collection::vec(-8.0f32..8.0, 0..96),
        ys in proptest::collection::vec(-8.0f32..8.0, 0..96),
    ) {
        use kelle::tensor::{dot, DOT_LANES};

        let n = xs.len().min(ys.len());
        let a: Vec<f32> = xs[..n].to_vec();
        let b: Vec<f32> = ys[..n].to_vec();

        // Independent realization of the documented ordering.
        let mut acc = [0.0f32; DOT_LANES];
        let full = a.len() / DOT_LANES;
        for c in 0..full {
            for (j, lane) in acc.iter_mut().enumerate() {
                *lane += a[DOT_LANES * c + j] * b[DOT_LANES * c + j];
            }
        }
        for (j, lane) in acc.iter_mut().enumerate().take(a.len() % DOT_LANES) {
            let i = DOT_LANES * full + j;
            *lane += a[i] * b[i];
        }
        let reference = (acc[0] + acc[1]) + (acc[2] + acc[3]);

        prop_assert_eq!(dot(&a, &b).to_bits(), reference.to_bits());

        // The result is also within float tolerance of the plain sequential
        // sum (same quantity, different association).
        let sequential: f64 = a.iter().zip(b.iter()).map(|(x, y)| f64::from(x * y)).sum();
        let magnitude: f64 = a.iter().zip(b.iter()).map(|(x, y)| f64::from((x * y).abs())).sum();
        prop_assert!((f64::from(dot(&a, &b)) - sequential).abs() <= 1e-4 * (1.0 + magnitude));

        // Matrix-vector rows are dot() of the row with the operand.
        if !a.is_empty() {
            let m = kelle::tensor::Matrix::from_rows(vec![a.clone(), b.clone()]).unwrap();
            let out = m.matvec(&b).unwrap();
            prop_assert_eq!(out[0].to_bits(), dot(&a, &b).to_bits());
            prop_assert_eq!(out[1].to_bits(), dot(&b, &b).to_bits());
        }
    }
}
