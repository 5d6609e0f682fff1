//! What the attention pass reads through the retention cells.
//!
//! AERP's stored input rows are read once per layer.  A popular token's
//! input vector `x` is stored once per layer (§4.1.2), so the attention pass
//! reads each stored row once per layer, whatever number of heads retain
//! it, and corrects each retaining head's key and value for the words that
//! one read changed.  These tests count the reads from outside the pass and pin which
//! token group a row shared by differently-ranking heads is read at.
//!
//! A row computed by the current pass is read clean.  A prompt's K/V are
//! computed in one pass and read from on-chip buffers; a bit is exposed to
//! retention loss only once it sits in eDRAM (§2.3).  So a first prompt
//! reads no cell, however it is chunked or whether its prefix
//! was replayed, and a decode step reads every row but its own through it.
//! These tests hold that rule for every policy under 2DRP, without golden
//! constants.
//!
//! A label is asked for only where a read goes through the cells, so a
//! prompt pass, which reads every row clean, selects no head's median, and
//! a decode step selects one per head that holds a row of an earlier pass.
//!
//! The test backends here serve what they store through
//! [`KvCacheBackend::head`], the one read attention makes.

use kelle::cache::CacheBudget;
use kelle::edram::{RefreshPolicy, RetentionModel};
use kelle::model::fault::BitFlipRates;
use kelle::model::generation::{decode_step, prefill, prefill_extend, GenerationState};
use kelle::model::weights::{ModelWeights, WeightGenConfig};
use kelle::model::{
    CacheStats, DecodeScratch, FaultInjector, FaultStats, HeadView, KvCacheBackend, LabelRule,
    ModelConfig, ModelKind, MultiHeadAttention, NoFaults, ProbabilisticFaults, SegmentRecorder,
    StoredRows, SurrogateDims, SurrogateModel, TokenId,
};
use kelle::{fault_injector_for_policy, CachePolicy, KelleEngine, PrefixSharingConfig};
use std::collections::{BTreeSet, HashMap};

/// What one forward pass over `cache` reads of the rows written before token
/// `before`, counted through each head's view: `(distinct stored rows,
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
            let view = cache.head(layer, head);
            let earlier = view.tokens.iter().filter(|&&t| t < before);
            match view.rows {
                None => kv += earlier.count(),
                Some(_) => {
                    for &token in earlier {
                        visits += 1;
                        distinct.insert(token);
                    }
                }
            }
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

/// Stores each token's input row once, under its token as slot, with each
/// head's key and value, and serves it to every head as a stored-row entry;
/// `label(head)` is the head's labelling of its entries.
#[derive(Debug)]
struct RowsOnly {
    tokens: Vec<TokenId>,
    /// The input rows, one per token.
    slab: Vec<f32>,
    /// Per head: its keys, then its values, `head_dim` per token.
    kv: Vec<(Vec<f32>, Vec<f32>)>,
    label: fn(usize) -> LabelRule<'static>,
}

impl KvCacheBackend for RowsOnly {
    fn insert(&mut self, _: usize, token: TokenId, x: &[f32], k: &[f32], v: &[f32], hd: usize) {
        assert_eq!(token, self.tokens.len());
        self.tokens.push(token);
        self.slab.extend_from_slice(x);
        self.kv.resize_with(k.len() / hd, Default::default);
        for ((keys, values), (k, v)) in self.kv.iter_mut().zip(k.chunks(hd).zip(v.chunks(hd))) {
            keys.extend_from_slice(k);
            values.extend_from_slice(v);
        }
    }

    fn head(&self, _: usize, head: usize) -> HeadView<'_> {
        let (keys, values) = &self.kv[head];
        HeadView {
            tokens: &self.tokens,
            keys,
            values,
            rows: Some(StoredRows {
                slots: &self.tokens,
                slab: &self.slab,
                width: self.slab.len() / self.tokens.len(),
            }),
            label: (self.label)(head),
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
/// ranks high reads intact in every head — here head 1, which neither
/// opens nor closes a layer's traversal.
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
    let run = |label: fn(usize) -> LabelRule<'static>, faults: &mut dyn FaultInjector| {
        let mut cache = RowsOnly {
            tokens: Vec::new(),
            slab: Vec::new(),
            kv: Vec::new(),
            label,
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

    // Each row is ranked high by exactly one head.
    let one_head: fn(usize) -> LabelRule<'static> = |head| LabelRule::Fixed(head == 1);
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
    let no_head: fn(usize) -> LabelRule<'static> = |_| LabelRule::Fixed(false);
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
/// publication pass at every boundary it marks and for a session whose
/// prompt replays a published prefix — the replayed rows are part of its
/// prompt pass.
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
            recorder.mark_boundary(state.last_logits());
            assert_eq!(
                faults.stats(),
                FaultStats::default(),
                "{} boundary {}",
                policy.name(),
                state.position()
            );
        }
        assert_eq!(recorder.finish_hierarchy().len(), prompt.len().div_ceil(8));

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

    fn head(&self, _: usize, _: usize) -> HeadView<'_> {
        HeadView::default()
    }

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
/// own through its cells.  The words it examines are the census of what the
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

/// Serves a policy's entries labelled by a median rank of its own record of
/// their accumulated scores, whatever rule the policy labels by.
#[derive(Debug)]
struct OwnRanks {
    inner: Box<dyn KvCacheBackend>,
    scores: HashMap<(usize, usize), HashMap<TokenId, f32>>,
    /// Per `(layer, head)`: the recorded score of each entry the inner
    /// backend holds, in entry order.
    ranked: HashMap<(usize, usize), Vec<f32>>,
    heads: usize,
}

impl OwnRanks {
    fn new(inner: Box<dyn KvCacheBackend>, heads: usize) -> Self {
        OwnRanks {
            inner,
            scores: HashMap::new(),
            ranked: HashMap::new(),
            heads,
        }
    }

    /// Lines the recorded scores of `(layer, head)` up with its entries.
    fn rank(&mut self, layer: usize, head: usize) {
        let observed = self.scores.get(&(layer, head));
        let scores = self
            .inner
            .head(layer, head)
            .tokens
            .iter()
            .map(|token| observed.and_then(|s| s.get(token)).copied().unwrap_or(0.0));
        let ranked = self.ranked.entry((layer, head)).or_default();
        ranked.clear();
        ranked.extend(scores);
    }
}

impl KvCacheBackend for OwnRanks {
    fn insert(&mut self, layer: usize, token: TokenId, x: &[f32], k: &[f32], v: &[f32], d: usize) {
        self.inner.insert(layer, token, x, k, v, d);
        for head in 0..self.heads {
            self.rank(layer, head);
        }
    }

    fn head(&self, layer: usize, head: usize) -> HeadView<'_> {
        let scores = self
            .ranked
            .get(&(layer, head))
            .map_or(&[][..], Vec::as_slice);
        HeadView {
            label: LabelRule::Ranked {
                scores,
                ranked: scores.len(),
            },
            ..self.inner.head(layer, head)
        }
    }

    fn observe_attention(&mut self, layer: usize, head: usize, scores: &[(TokenId, f32)]) {
        let acc = self.scores.entry((layer, head)).or_default();
        for &(token, p) in scores {
            *acc.entry(token).or_default() += p;
        }
        self.inner.observe_attention(layer, head, scores);
        self.rank(layer, head);
    }

    fn finish_prefill(&mut self, context_len: usize) {
        self.inner.finish_prefill(context_len);
        let keys: Vec<_> = self.ranked.keys().copied().collect();
        for (layer, head) in keys {
            self.rank(layer, head);
        }
    }

    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A 2DRP label is selected only when a read through the cells asks for it.
/// Under 2DRP, with every policy's entries ranked by median, a cold prompt
/// pass and a prefix hit's prompt pass read every row clean and select no
/// median; each decode step selects exactly one per `(layer, head)` that
/// holds an entry of an earlier pass, however many of its entries are read
/// through the cells.  The attention pass counts what it selects.
#[test]
fn a_label_is_selected_only_for_a_read_through_the_lane() {
    let (model, budget, prompt) = fixture();
    let dims = *model.dims();
    for policy in CachePolicy::all() {
        let name = policy.name();
        let mut cache = OwnRanks::new(policy.build(budget, dims.heads), dims.heads);
        let mut faults = two_drp(7);
        let mut state = GenerationState::new();
        prefill(&model, &mut state, &prompt, &mut cache, &mut faults);
        assert_eq!(state.medians_selected(), 0, "{name}: cold prompt pass");
        for step in 0..8 {
            let position = state.position();
            let before = state.medians_selected();
            decode_step(&model, &mut state, None, &mut cache, &mut faults);
            let mut expected = 0;
            for layer in 0..dims.layers {
                for head in 0..dims.heads {
                    let view = cache.inner.head(layer, head);
                    expected += u64::from(view.tokens.first().is_some_and(|&t| t < position));
                }
            }
            assert!(expected > 0, "{name} step {step}");
            assert_eq!(
                state.medians_selected() - before,
                expected,
                "{name} step {step}"
            );
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
        let mut cache = OwnRanks::new(policy.build(budget, dims.heads), dims.heads);
        let mut faults = two_drp(7);
        let mut state = GenerationState::new();
        segment.attach_and_replay(&mut cache);
        state.adopt_prefix(&segment);
        prefill(&model, &mut state, &prompt[16..], &mut cache, &mut faults);
        assert_eq!(state.medians_selected(), 0, "{name}: prefix hit's pass");
    }
}
