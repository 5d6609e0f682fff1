//! What the attention pass reads through the fault lane.
//!
//! AERP's stored input rows are read once per layer.  A popular token's
//! input vector `x` is stored once per layer (§4.1.2), so the attention pass
//! copies and corrupts each stored row once per layer, whatever number of
//! heads retain it, and corrects each retaining head's key and value for
//! the words that one read flipped.  These tests count the reads from outside the pass and pin which
//! token group a row shared by differently-ranking heads is read at.
//!
//! A row computed by the current pass is read clean.  A prompt's K/V are
//! computed in one pass and read from on-chip buffers; a bit is exposed to
//! retention loss only once it sits in eDRAM (§2.3).  So a first prompt
//! draws nothing from the lane, however it is chunked or whether its prefix
//! was replayed, and a decode step reads every row but its own through it.
//! These tests hold that rule for every policy under 2DRP, without golden
//! constants.
//!
//! A label is asked for only where a read goes through the lane, so a
//! prompt pass, which reads every row clean, selects no head's median, and
//! a decode step selects one per head that holds a row of an earlier pass.

use kelle::cache::CacheBudget;
use kelle::edram::{RefreshPolicy, RetentionModel};
use kelle::model::fault::BitFlipRates;
use kelle::model::generation::{decode_step, prefill, prefill_extend, GenerationState};
use kelle::model::weights::{ModelWeights, WeightGenConfig};
use kelle::model::{
    CacheStats, DecodeScratch, EntryRef, FaultInjector, FaultStats, KvCacheBackend,
    MedianThreshold, ModelConfig, ModelKind, MultiHeadAttention, NoFaults, PayloadRef,
    ProbabilisticFaults, SegmentRecorder, SurrogateDims, SurrogateModel, TokenId,
};
use kelle::{fault_injector_for_policy, CachePolicy, KelleEngine, PrefixSharingConfig};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// What one forward pass over `cache` reads of the rows written before token
/// `before`, counted through `for_each_entry`: `(distinct stored rows,
/// recompute visits, KV entries)` per layer, summed.
fn census(
    cache: &dyn KvCacheBackend,
    layers: usize,
    heads: usize,
    before: TokenId,
) -> (usize, usize, usize) {
    let (mut rows, mut visits, mut kv) = (0, 0, 0);
    for layer in 0..layers {
        let mut distinct = BTreeSet::new();
        for head in 0..heads {
            cache.for_each_entry(layer, head, &mut |e| match e.payload {
                _ if e.token >= before => {}
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

/// The words a pass over `cache` reads of the rows written before `before`.
fn census_words(cache: &dyn KvCacheBackend, dims: &SurrogateDims, before: TokenId) -> u64 {
    let (rows, _, kv) = census(cache, dims.layers, dims.heads, before);
    (rows * dims.channels + kv * 2 * (dims.channels / dims.heads)) as u64
}

/// The model, budget and 24-token prompt the pass-rule tests share: every
/// budgeted policy evicts while the prompt is pre-filled.
fn fixture() -> (SurrogateModel, CacheBudget, Vec<usize>) {
    let model = SurrogateModel::new(ModelConfig::for_kind(ModelKind::Llama2_7b), 7);
    let budget = CacheBudget::new(16)
        .with_recent_window(4)
        .with_sink_tokens(2);
    let prompt = (0..24).map(|t| (3 + 5 * t) % 97).collect();
    (model, budget, prompt)
}

/// The 2DRP injector the tests read through.
fn two_drp(seed: u64) -> ProbabilisticFaults {
    fault_injector_for_policy(
        &RefreshPolicy::two_dimensional_default(),
        &RetentionModel::default(),
        seed,
    )
}

/// Every faulted decode step examines each distinct stored row of a layer
/// once (`channels` words) plus each head's KV entries (`2 × head_dim` words
/// each) — not one row read per retaining head.  AERP stores every token it
/// keeps as a row (a token enters all heads, so it is popular at once); the
/// other policies store KV only, and are held to the same count.  The
/// step's own row is read clean, so the count covers the rows of earlier
/// passes.
#[test]
fn faulted_pass_examines_each_stored_row_once_per_layer() {
    let (model, budget, prompt) = fixture();
    let dims = *model.dims();
    let head_dim = dims.channels / dims.heads;

    for policy in CachePolicy::all() {
        let mut cache = policy.build(budget, dims.heads);
        let mut faults = two_drp(7);
        let mut state = GenerationState::new();
        prefill(&model, &mut state, &prompt, cache.as_mut(), &mut faults);

        let (mut rows, mut visits, mut kv) = (0, 0, 0);
        for step in 0..24 {
            let before = faults.stats().words_examined;
            let position = state.position();
            decode_step(&model, &mut state, None, cache.as_mut(), &mut faults);
            // Observing attention moves no entry, so what the cache holds
            // after the step is what each layer's pass read.
            let (step_rows, step_visits, step_kv) =
                census(cache.as_ref(), dims.layers, dims.heads, position);
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

/// Stores each token's input row once, with its flat keys and values, and
/// serves it to every head as a `Recompute` entry; `high(head, token)` is
/// the head's ranking of it.
#[derive(Debug)]
struct RowsOnly {
    /// Per token: its input row, keys and values.
    rows: Vec<[Vec<f32>; 3]>,
    head_dim: usize,
    high: fn(usize, TokenId) -> bool,
}

impl KvCacheBackend for RowsOnly {
    fn insert(&mut self, _: usize, token: TokenId, x: &[f32], k: &[f32], v: &[f32], hd: usize) {
        assert_eq!(token, self.rows.len());
        self.rows.push([x.to_vec(), k.to_vec(), v.to_vec()]);
        self.head_dim = hd;
    }

    fn for_each_entry(&self, _: usize, head: usize, visit: &mut dyn for<'e> FnMut(EntryRef<'e>)) {
        let span = head * self.head_dim..(head + 1) * self.head_dim;
        for (token, [x, keys, values]) in self.rows.iter().enumerate() {
            let payload = PayloadRef::Recompute {
                x,
                slot: token,
                key: &keys[span.clone()],
                value: &values[span.clone()],
            };
            visit(EntryRef::labelled(token, payload, (self.high)(head, token)));
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
            head_dim: 0,
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
    // Every row of an earlier pass read, once per layer per pass:
    // 0 + 1 + … + (TOKENS − 1) rows.  With no generation state, each forward
    // is a pass of its own, so only its own row is read clean.
    let words = (TOKENS * (TOKENS - 1) / 2 * dims.channels) as u64;

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

/// A first prompt computes every row it reads, so it draws nothing from the
/// lane: after `prefill` the injector's counters are zero and the last
/// logits are bitwise those of a `NoFaults` prefill.  The same holds for a
/// publication's boundary snapshots and for a session whose prompt replays
/// a published prefix — the replayed rows are part of its prompt pass.
#[test]
fn a_first_prompt_reads_nothing_through_the_lane() {
    let (model, budget, prompt) = fixture();
    let heads = model.dims().heads;
    for policy in CachePolicy::all() {
        let logits = |faults: &mut dyn FaultInjector| {
            let mut cache = policy.build(budget, heads);
            let mut state = GenerationState::new();
            prefill(&model, &mut state, &prompt, cache.as_mut(), faults);
            let bits: Vec<u32> = state.last_logits().iter().map(|l| l.to_bits()).collect();
            bits
        };
        let mut faults = two_drp(7);
        assert_eq!(
            logits(&mut faults),
            logits(&mut NoFaults),
            "{}",
            policy.name()
        );
        assert_eq!(faults.stats(), FaultStats::default(), "{}", policy.name());

        let mut backing = policy.build(budget, heads);
        let mut recorder = SegmentRecorder::new(backing.as_mut());
        let mut state = GenerationState::new();
        let mut faults = two_drp(7);
        for chunk in prompt.chunks(8) {
            prefill_extend(&model, &mut state, chunk, &mut recorder, &mut faults);
            recorder.mark_boundary(state.last_logits(), faults.clone());
        }
        for segment in recorder.finish_hierarchy() {
            assert_eq!(
                segment.faults_snapshot().stats(),
                FaultStats::default(),
                "{} boundary {}",
                policy.name(),
                segment.len()
            );
        }

        let engine = KelleEngine::builder()
            .policy(policy)
            .refresh_policy(RefreshPolicy::two_dimensional_default())
            .budget(budget)
            .prefix_sharing(PrefixSharingConfig::enabled())
            .seed(7)
            .build();
        assert!(engine.publish_prefix(&prompt[..16]), "{}", policy.name());
        let mut session = engine.open_session();
        session.prefill(&prompt);
        assert_eq!(session.prefix_hit_tokens(), 16, "{}", policy.name());
        assert_eq!(
            session.fault_stats(),
            FaultStats::default(),
            "{}",
            policy.name()
        );
    }
}

/// A prompt pass opens at its first `prefill_extend` and closes with
/// pre-fill, so how the prompt is chunked moves nothing: one `prefill` and
/// two `prefill_extend`s closed by hand leave the same logits, cache and
/// fault counters, and the 16 decode steps after them emit the same tokens
/// and probability bits.
#[test]
fn the_pass_rule_is_independent_of_chunking() {
    let (model, budget, prompt) = fixture();
    let heads = model.dims().heads;
    let (a, b) = prompt.split_at(10);
    for policy in CachePolicy::all() {
        let run = |chunked: bool| {
            let mut cache = policy.build(budget, heads);
            let mut faults = two_drp(11);
            let mut state = GenerationState::new();
            if chunked {
                prefill_extend(&model, &mut state, a, cache.as_mut(), &mut faults);
                prefill_extend(&model, &mut state, b, cache.as_mut(), &mut faults);
                cache.finish_prefill(state.position());
                state.end_pass();
            } else {
                prefill(&model, &mut state, &prompt, cache.as_mut(), &mut faults);
            }
            let mut bits: Vec<u32> = state.last_logits().iter().map(|l| l.to_bits()).collect();
            let prefilled = (cache.stats(), faults.stats());
            for _ in 0..16 {
                let step = decode_step(&model, &mut state, None, cache.as_mut(), &mut faults);
                bits.push(step.token as u32);
                bits.extend(step.probs.iter().map(|p| p.to_bits()));
            }
            (bits, prefilled, cache.stats(), faults.stats())
        };
        let (whole, chunked) = (run(false), run(true));
        assert!(whole.3.bits_flipped > 0, "{}", policy.name());
        assert_eq!(whole, chunked, "{}", policy.name());
    }
}

/// One insert a backend was handed.
#[derive(Debug)]
struct Insert {
    layer: usize,
    token: TokenId,
    x: Vec<f32>,
    keys: Vec<f32>,
    values: Vec<f32>,
}

/// Records each insert it is handed.
#[derive(Debug, Default)]
struct Inserts(Vec<Insert>);

impl KvCacheBackend for Inserts {
    fn insert(&mut self, layer: usize, token: TokenId, x: &[f32], k: &[f32], v: &[f32], _: usize) {
        self.0.push(Insert {
            layer,
            token,
            x: x.to_vec(),
            keys: k.to_vec(),
            values: v.to_vec(),
        });
    }

    fn for_each_entry(&self, _: usize, _: usize, _: &mut dyn for<'e> FnMut(EntryRef<'e>)) {}

    fn observe_attention(&mut self, _: usize, _: usize, _: &[(TokenId, f32)]) {}

    fn stats(&self) -> CacheStats {
        CacheStats::default()
    }

    fn name(&self) -> &'static str {
        "inserts"
    }
}

/// A prefix hit's store keeps the replayed rows' keys and values, and its
/// reads use them instead of recomputing them, which is sound only if the
/// segment recorded each row's own projection: every replayed insert's keys and
/// values equal, bit for bit, what `project_kv_into` makes of its `x` at
/// its token, in every layer, for every policy.
#[test]
fn a_published_segment_records_the_projection_of_every_row() {
    let (model, budget, prompt) = fixture();
    let dims = *model.dims();
    let bits = |s: &[f32]| s.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    for policy in CachePolicy::all() {
        let mut backing = policy.build(budget, dims.heads);
        let mut recorder = SegmentRecorder::new(backing.as_mut());
        let mut state = GenerationState::new();
        let mut faults = two_drp(7);
        for chunk in prompt.chunks(10) {
            prefill_extend(&model, &mut state, chunk, &mut recorder, &mut faults);
        }
        let segment = recorder.finish(state.last_logits(), faults);

        let mut replayed = Inserts::default();
        segment.attach_and_replay(&mut replayed);
        assert_eq!(replayed.0.len(), prompt.len() * dims.layers);
        let (mut k, mut v) = (Vec::new(), Vec::new());
        for insert in &replayed.0 {
            let (layer, token) = (insert.layer, insert.token);
            let attention = MultiHeadAttention::new(&model.weights().layers[layer], dims.heads);
            attention.project_kv_into(&insert.x, token, &mut k, &mut v);
            let at = format!("{} layer {layer} token {token}", policy.name());
            assert_eq!(bits(&insert.keys), bits(&k), "keys, {at}");
            assert_eq!(bits(&insert.values), bits(&v), "values, {at}");
        }
    }
}

/// A decode step is a pass of one token: it reads every stored row but its
/// own through the lane.  The words it examines are the census of what the
/// cache holds after the step less the step's own token, which the cache
/// does hold.
#[test]
fn a_decode_step_reads_its_own_row_clean() {
    let (model, budget, prompt) = fixture();
    let dims = *model.dims();
    for policy in CachePolicy::all() {
        let mut cache = policy.build(budget, dims.heads);
        let mut faults = two_drp(7);
        let mut state = GenerationState::new();
        prefill(&model, &mut state, &prompt, cache.as_mut(), &mut faults);
        for step in 0..16 {
            let before = faults.stats().words_examined;
            let position = state.position();
            decode_step(&model, &mut state, None, cache.as_mut(), &mut faults);
            let earlier = census_words(cache.as_ref(), &dims, position);
            let all = census_words(cache.as_ref(), &dims, TokenId::MAX);
            assert!(all > earlier, "{} step {step}: own row held", policy.name());
            assert_eq!(
                faults.stats().words_examined - before,
                earlier,
                "{} step {step}",
                policy.name()
            );
        }
    }
}

/// Serves a policy's entries ranked by its own record of their accumulated
/// scores, and counts per `(layer, head)` the medians its thresholds select.
#[derive(Debug)]
struct CountedRanks {
    inner: Box<dyn KvCacheBackend>,
    scores: HashMap<(usize, usize), HashMap<TokenId, f32>>,
    buffer: RefCell<Vec<f32>>,
    selections: RefCell<BTreeMap<(usize, usize), usize>>,
}

impl CountedRanks {
    fn new(inner: Box<dyn KvCacheBackend>) -> Self {
        CountedRanks {
            inner,
            scores: HashMap::new(),
            buffer: RefCell::default(),
            selections: RefCell::default(),
        }
    }

    /// The selections counted since the last call.
    fn take_selections(&self) -> BTreeMap<(usize, usize), usize> {
        self.selections.take()
    }
}

impl KvCacheBackend for CountedRanks {
    fn insert(&mut self, layer: usize, token: TokenId, x: &[f32], k: &[f32], v: &[f32], d: usize) {
        self.inner.insert(layer, token, x, k, v, d);
    }

    fn for_each_entry(
        &self,
        layer: usize,
        head: usize,
        visit: &mut dyn for<'e> FnMut(EntryRef<'e>),
    ) {
        let observed = self.scores.get(&(layer, head));
        let select = |buffer: &mut Vec<f32>| {
            *self
                .selections
                .borrow_mut()
                .entry((layer, head))
                .or_default() += 1;
            buffer.extend(observed.into_iter().flat_map(|s| s.values()));
        };
        let threshold = MedianThreshold::new(&select, &self.buffer);
        self.inner.for_each_entry(layer, head, &mut |e| {
            let score = observed.and_then(|s| s.get(&e.token)).copied();
            visit(EntryRef::scored(
                e.token,
                e.payload,
                score.unwrap_or(0.0),
                &threshold,
            ));
        });
    }

    fn observe_attention(&mut self, layer: usize, head: usize, scores: &[(TokenId, f32)]) {
        let acc = self.scores.entry((layer, head)).or_default();
        for &(token, p) in scores {
            *acc.entry(token).or_default() += p;
        }
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

/// A 2DRP label is selected only when a read through the lane asks for it.
/// Under 2DRP, a cold prompt pass and a prefix hit's prompt pass read every
/// row clean and select no median; each decode step selects exactly one per
/// `(layer, head)` that holds an entry of an earlier pass, however many of
/// its entries are read through the lane.
#[test]
fn a_label_is_selected_only_for_a_read_through_the_lane() {
    let (model, budget, prompt) = fixture();
    let dims = *model.dims();
    let none = BTreeMap::new();
    for policy in CachePolicy::all() {
        let name = policy.name();
        let mut cache = CountedRanks::new(policy.build(budget, dims.heads));
        let mut faults = two_drp(7);
        let mut state = GenerationState::new();
        prefill(&model, &mut state, &prompt, &mut cache, &mut faults);
        assert_eq!(cache.take_selections(), none, "{name}: cold prompt pass");
        for step in 0..8 {
            let position = state.position();
            decode_step(&model, &mut state, None, &mut cache, &mut faults);
            let mut expected = BTreeMap::new();
            for layer in 0..dims.layers {
                for head in 0..dims.heads {
                    let mut earlier = false;
                    cache
                        .inner
                        .for_each_entry(layer, head, &mut |e| earlier |= e.token < position);
                    if earlier {
                        expected.insert((layer, head), 1);
                    }
                }
            }
            assert!(!expected.is_empty(), "{name} step {step}");
            assert_eq!(cache.take_selections(), expected, "{name} step {step}");
        }

        let mut backing = policy.build(budget, dims.heads);
        let mut recorder = SegmentRecorder::new(backing.as_mut());
        let mut published = GenerationState::new();
        let mut faults = two_drp(7);
        prefill_extend(
            &model,
            &mut published,
            &prompt[..16],
            &mut recorder,
            &mut faults,
        );
        let segment = recorder.finish(published.last_logits(), faults);
        let mut cache = CountedRanks::new(policy.build(budget, dims.heads));
        let mut faults = segment.faults_snapshot();
        let mut state = GenerationState::new();
        segment.attach_and_replay(&mut cache);
        state.adopt_prefix(&segment);
        prefill(&model, &mut state, &prompt[16..], &mut cache, &mut faults);
        assert_eq!(cache.take_selections(), none, "{name}: prefix hit's pass");
    }
}
