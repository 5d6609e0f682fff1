//! The one KV store, [`KvStore`]: every cache policy of the paper's Table 2
//! — FP16, StreamingLLM, H2O, QuaRot and AERP — is a setting of AERP's
//! per-head eviction core (§4.1), picked by [`CachePolicy`].  The store's
//! docs set out its four decision points; this module keeps AERP's name
//! because AERP is the core the other policies are settings of.
//!
//! # Why the popularity threshold θ cannot matter
//!
//! The paper stores a token as `x` once it is *popular* — retained by at
//! least a fraction θ of the heads — and as per-head K/V before that, and a
//! token keeps the `x` format until every head has evicted it.  But the
//! arriving token is never an eviction victim, so at its own insert every
//! head retains it: under any θ ≤ 1 every token is popular from its insert
//! on.  AERP therefore stores every token as `x` and keeps no popularity
//! state.
//!
//! `CacheStats::bytes_fp16` reflects the declared storage of the live
//! entries, never retired capacity: `C` elements once per layer for each
//! stored row, `2 × C/H` per retaining head for each K/V entry (at 4 bits
//! for QuaRot) — the quantity the eDRAM capacity/refresh model consumes
//! downstream.

use crate::arena::{InputSlab, KvArena};
use crate::budget::CacheBudget;
use crate::cache::{CacheStats, HeadView, KvCacheBackend, LabelRule, StoredRows, TokenId};
use crate::policy::CachePolicy;
use kelle_tensor::{quant, QuantFormat};
use std::cmp::Ordering;

/// How a policy stores a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    /// Key and value at 16 bits.
    Fp16,
    /// The int4 image of key and value.
    Int4,
    /// The layer input `x`, once per layer, billed; plus each head's key
    /// and value on the host only.
    Input,
}

/// One head's retained tokens, in insertion order.
#[derive(Debug, Clone)]
struct Head {
    tokens: Vec<TokenId>,
    /// The accumulated attention score of each token (Eq. 3).
    scores: Vec<f32>,
    /// How many of the oldest entries an observe has named; read only under
    /// Full, which never evicts.
    observed: usize,
    /// Each token's key and value: what the policy stores, or under AERP the
    /// host's unbilled copy.
    kv: KvArena,
    /// AERP: the slab slot of each token's input row; empty otherwise.
    slots: Vec<usize>,
}

impl Head {
    /// The index of the unprotected token other than `incoming` with the
    /// lowest score, ties to the oldest; if all of those are protected, the
    /// oldest token other than `incoming`.
    fn lowest_score(
        &self,
        budget: CacheBudget,
        current_len: usize,
        incoming: Option<TokenId>,
    ) -> Option<usize> {
        let candidates = || {
            self.tokens
                .iter()
                .enumerate()
                .filter(move |&(_, &t)| Some(t) != incoming)
        };
        candidates()
            .filter(|&(_, &t)| !budget.is_protected(t, current_len))
            .min_by(|&(a, ta), &(b, tb)| {
                self.scores[a]
                    .partial_cmp(&self.scores[b])
                    .unwrap_or(Ordering::Equal)
                    .then(ta.cmp(tb))
            })
            .or_else(|| candidates().next())
            .map(|(i, _)| i)
    }
}

/// Per-layer state.
#[derive(Debug, Clone)]
struct Layer {
    heads: Vec<Head>,
    format: Format,
    /// AERP: the input row of every token some head retains.
    rows: InputSlab,
    /// Per slab slot: how many heads retain its row.
    holders: Vec<usize>,
}

impl Layer {
    fn new(heads: usize, head_dim: usize, format: Format) -> Self {
        let head = Head {
            tokens: Vec::new(),
            scores: Vec::new(),
            observed: 0,
            kv: KvArena::new(head_dim),
            slots: Vec::new(),
        };
        Layer {
            heads: vec![head; heads],
            format,
            rows: InputSlab::new(heads * head_dim),
            holders: Vec::new(),
        }
    }

    /// Appends `token` to every head with a zero score, stored in the
    /// layer's format; no head holds more than `limit` entries from here on.
    fn push(&mut self, token: TokenId, x: &[f32], (keys, values): (&[f32], &[f32]), limit: usize) {
        let head_dim = keys.len() / self.heads.len();
        let mut slot = None;
        for (head, (key, value)) in self.heads.iter_mut().zip(
            keys.chunks_exact(head_dim)
                .zip(values.chunks_exact(head_dim)),
        ) {
            head.tokens.push(token);
            head.scores.push(0.0);
            head.kv.push(key, value, limit);
            match self.format {
                Format::Input => head
                    .slots
                    .push(*slot.get_or_insert_with(|| self.rows.push(x))),
                Format::Int4 => {
                    let (key, value) = head.kv.last_mut();
                    quant::round_trip_in_place(key, QuantFormat::Int4);
                    quant::round_trip_in_place(value, QuantFormat::Int4);
                }
                Format::Fp16 => {}
            }
        }
        if let Some(slot) = slot {
            if slot == self.holders.len() {
                self.holders.push(0);
            }
            self.holders[slot] = self.heads.len();
        }
    }

    /// Removes entry `i` of `head`, and the token's row once no head
    /// retains it.
    fn evict(&mut self, head: usize, i: usize) {
        let head = &mut self.heads[head];
        head.tokens.remove(i);
        head.scores.remove(i);
        head.kv.remove_at(i);
        if self.format == Format::Input {
            let slot = head.slots.remove(i);
            self.holders[slot] -= 1;
            if self.holders[slot] == 0 {
                self.rows.remove(slot);
            }
        }
    }
}

/// The one KV store.  [`CachePolicy::build`] builds it for every policy.
///
/// # One per-head core
///
/// Per layer and head, the store keeps the retained tokens in insertion
/// order, a parallel array of accumulated attention scores — every observe
/// adds the post-softmax probability a head gave each of its entries to that
/// entry's score (Eq. 3) — and what the policy stores for each token.
/// Decisions are per head, so the retained token sets may *differ across
/// heads*.  This is the host-side analogue of the systolic evictor (§5.3),
/// which keeps one score register per cached token and finds the minimum as
/// the scores stream out.
///
/// # Four decision points
///
/// The store's behaviour is a function of its [`CachePolicy`] and
/// [`CacheBudget`] alone.  Each decision point is a `match` on the policy,
/// made once per call and never per visited entry:
///
/// | policy | victim | evicts | format | label |
/// |---|---|---|---|---|
/// | Full | none | never | FP16 K/V | median of the observed, the rest high |
/// | StreamingLLM | oldest non-sink | on every insert | FP16 K/V | sinks high |
/// | H2O | lowest score | after pre-fill | FP16 K/V | median |
/// | QuaRot | none | never | int4 K/V image | all high |
/// | AERP | lowest score | after pre-fill | `x` (billed) + host-only K/V | median |
///
/// * **Victim rule.** StreamingLLM (Xiao et al., cited as \[83\]) keeps the
///   attention sinks and the most recent tokens, so its victim is the oldest
///   entry past the sinks.  H2O (Zhang et al., \[98\]) and AERP evict the
///   entry with the smallest score, ties going to the oldest; sink tokens,
///   the recent window and the arriving token are never chosen (if nothing
///   else is left, the oldest token other than the arriving one goes).  H2O
///   is the paper's "AEP" ablation (§8.1): AERP's rule without the
///   recomputation.
/// * **When it evicts.** A head holds at most `N'` tokens (§4.1.1).
///   StreamingLLM enforces that on every insert, during pre-fill too.  H2O
///   and AERP evict nothing during pre-fill; after it,
///   [`finish_prefill`](KvCacheBackend::finish_prefill) keeps each head's
///   top-`N'` tokens plus the protected ones.  Full and QuaRot never evict.
/// * **Format.** Every head keeps one K/V arena: two flat buffers strided
///   by `head_dim`, grown by doubling but never past room for the head's
///   capacity plus the arriving token.  FP16 K/V go there.  QuaRot (Ashkboos et al., \[6\]) keeps the dequantized
///   image of each vector's symmetric int4 quantization, materialized at
///   insert (quantizing is deterministic, so the image equals a dequantize
///   at every read), and is billed at int4 bytes; the Hadamard rotation is
///   left out, as the surrogate has no outliers for it to remove.  AERP
///   stores `x` (§4.1.2): a token's layer input (`C` elements) is kept once
///   per layer in a slot-recycling slab, and the device recomputes K/V
///   through `W_K`/`W_V` when the token is read ([`StoredRows`]).
///   Each head holds the row's slab slot; a per-slot count of retaining
///   heads frees the row when the last of them evicts the token.  Beside
///   the slot, each head keeps the key and value its insert received in its
///   arena, on the host only: the attention pass reads them
///   instead of recomputing them, and corrects them for the words a faulted
///   read of `x` flipped.  That copy is neither stored on the device nor
///   billed: `CacheStats` counts the row, at `C` elements, and no K/V
///   entry.
/// * **Label.** The HST/LST split of 2DRP (§4.2).  StreamingLLM labels its
///   sinks high and QuaRot every entry.  H2O and AERP rank each entry
///   against the median of its head's scores (a new token scores 0.0): each
///   [`head`](KvCacheBackend::head) view hands out the scores under
///   [`LabelRule::Ranked`], and the reader selects the median at the first
///   label it asks for, so inserts, observes and `finish_prefill` select
///   nothing, and neither does a read that asks for no label.  Full ranks
///   only the entries an observe has named, against the median of their
///   scores; the newer ones are high, the conservative refresh default.
///   Every observe names all of a head's entries and Full evicts nothing, so
///   the unobserved entries are always a tail, and a per-head count of
///   observed entries marks where it
///   starts.
#[derive(Debug, Clone)]
pub struct KvStore {
    policy: CachePolicy,
    budget: CacheBudget,
    /// Attention heads per layer; a store from [`KvStore::new`] starts at
    /// zero and learns it at its first insert.
    heads: usize,
    layers: Vec<Layer>,
    current_len: usize,
    /// Until [`KvCacheBackend::finish_prefill`]; H2O and AERP retain the
    /// top-`N'` tokens only once the whole context has been scored
    /// (§4.1.1).
    in_prefill: bool,
    evictions: u64,
    insertions: u64,
}

/// The uncompressed reference cache — the paper's "FP16 / full KV cache"
/// column of Table 2: the store under [`CachePolicy::Full`], which retains
/// every token of every head as FP16 K/V.
pub type FullKvCache = KvStore;

impl Default for KvStore {
    fn default() -> Self {
        Self::new()
    }
}

impl KvStore {
    /// Creates the full reference store; it learns the head count at its
    /// first insert.  Only the benchmark's `FullKvCache::new()` builds a
    /// store this way; everything else goes through [`CachePolicy::build`],
    /// which knows the head count up front.
    pub fn new() -> Self {
        // Full never reads its budget.
        Self::with(CachePolicy::Full, CacheBudget::new(usize::MAX), 0)
    }

    /// The store [`CachePolicy::build`] boxes: `policy` over `heads` heads,
    /// with `budget` normalised (its `max_tokens` is public, so a caller may
    /// have shrunk it below its protected set).
    ///
    /// # Panics
    ///
    /// Panics if `heads == 0`.
    pub(crate) fn for_policy(policy: CachePolicy, budget: CacheBudget, heads: usize) -> Self {
        assert!(heads > 0, "a cache needs at least one attention head");
        Self::with(policy, budget.clamped(), heads)
    }

    fn with(policy: CachePolicy, budget: CacheBudget, heads: usize) -> Self {
        KvStore {
            policy,
            budget,
            heads,
            layers: Vec::new(),
            current_len: 0,
            in_prefill: true,
            evictions: 0,
            insertions: 0,
        }
    }

    /// Decision point 1, the victim rule: which entry of `head` leaves when
    /// it holds too many, `incoming` being the token just inserted.
    fn victim(&self, head: &Head, incoming: Option<TokenId>) -> Option<usize> {
        match self.policy {
            CachePolicy::Full | CachePolicy::QuaRotInt4 => None,
            CachePolicy::StreamingLlm => {
                let sinks = self.budget.sink_tokens;
                Some(head.tokens.iter().position(|&t| t >= sinks).unwrap_or(0))
            }
            CachePolicy::H2o | CachePolicy::Aerp => {
                head.lowest_score(self.budget, self.current_len, incoming)
            }
        }
    }

    /// Decision point 2, when it evicts: how many entries a head may hold
    /// now.
    fn capacity(&self) -> usize {
        match self.policy {
            CachePolicy::Full | CachePolicy::QuaRotInt4 => usize::MAX,
            CachePolicy::StreamingLlm => self.budget.max_tokens,
            CachePolicy::H2o | CachePolicy::Aerp if self.in_prefill => usize::MAX,
            CachePolicy::H2o | CachePolicy::Aerp => self.budget.max_tokens,
        }
    }

    /// Decision point 3, the format.
    fn format(&self) -> Format {
        match self.policy {
            CachePolicy::Full | CachePolicy::StreamingLlm | CachePolicy::H2o => Format::Fp16,
            CachePolicy::QuaRotInt4 => Format::Int4,
            CachePolicy::Aerp => Format::Input,
        }
    }

    /// Evicts from `(layer, head)` until it fits the capacity.
    fn settle(&mut self, layer: usize, head: usize, incoming: Option<TokenId>) {
        let capacity = self.capacity();
        while self.layers[layer].heads[head].tokens.len() > capacity {
            let Some(i) = self.victim(&self.layers[layer].heads[head], incoming) else {
                break;
            };
            self.layers[layer].evict(head, i);
            self.evictions += 1;
        }
    }

    /// Decision point 4, the label: how `head`'s entries are labelled.
    fn label<'s>(&self, head: &'s Head) -> LabelRule<'s> {
        match self.policy {
            CachePolicy::StreamingLlm => LabelRule::Sinks(self.budget.sink_tokens),
            CachePolicy::QuaRotInt4 => LabelRule::Fixed(true),
            CachePolicy::H2o | CachePolicy::Aerp => LabelRule::Ranked {
                scores: &head.scores,
                ranked: head.tokens.len(),
            },
            CachePolicy::Full => LabelRule::Ranked {
                scores: &head.scores,
                ranked: head.observed,
            },
        }
    }
}

impl KvCacheBackend for KvStore {
    fn insert(
        &mut self,
        layer: usize,
        token: TokenId,
        x: &[f32],
        keys: &[f32],
        values: &[f32],
        head_dim: usize,
    ) {
        if self.heads == 0 {
            self.heads = keys.len() / head_dim;
        }
        assert_eq!(
            keys.len(),
            self.heads * head_dim,
            "per-head keys must match head count"
        );
        self.current_len = self.current_len.max(token + 1);
        let format = self.format();
        if layer >= self.layers.len() {
            let heads = self.heads;
            self.layers
                .resize_with(layer + 1, || Layer::new(heads, head_dim, format));
        }
        // A head holds its capacity plus the arriving token until it settles.
        let limit = self.capacity().saturating_add(1);
        self.layers[layer].push(token, x, (keys, values), limit);
        for head in 0..self.heads {
            self.settle(layer, head, Some(token));
        }
        self.insertions += 1;
    }

    /// The head's arrays as they are: its tokens, its K/V arena (under AERP
    /// the host copy) and, under AERP, its slots into the layer's slab,
    /// labelled by the policy's rule.
    fn head(&self, layer: usize, head: usize) -> HeadView<'_> {
        let Some(state) = self.layers.get(layer) else {
            return HeadView::default();
        };
        let head = &state.heads[head];
        HeadView {
            tokens: &head.tokens,
            keys: head.kv.keys(),
            values: head.kv.values(),
            rows: (state.format == Format::Input).then(|| StoredRows {
                slots: &head.slots,
                slab: state.rows.slab(),
                width: state.rows.width(),
            }),
            label: self.label(head),
        }
    }

    /// Adds each score to its entry's accumulated score, by position.
    ///
    /// # Panics
    ///
    /// Panics unless `scores` names the head's entries token by token, in
    /// entry order (the trait's contract).
    fn observe_attention(&mut self, layer: usize, head: usize, scores: &[(TokenId, f32)]) {
        const CONTRACT: &str =
            "observe_attention reports one score per entry of the head's last for_each_entry, in that order";
        let Some(state) = self.layers.get_mut(layer) else {
            assert!(scores.is_empty(), "{CONTRACT}");
            return;
        };
        let head = &mut state.heads[head];
        assert_eq!(scores.len(), head.tokens.len(), "{CONTRACT}");
        for ((acc, &token), &(observed, p)) in head.scores.iter_mut().zip(&head.tokens).zip(scores)
        {
            assert_eq!(observed, token, "{CONTRACT}");
            *acc += p;
        }
        head.observed = head.tokens.len();
    }

    fn finish_prefill(&mut self, context_len: usize) {
        self.in_prefill = false;
        self.current_len = self.current_len.max(context_len);
        for layer in 0..self.layers.len() {
            for head in 0..self.heads {
                self.settle(layer, head, None);
            }
        }
    }

    fn stats(&self) -> CacheStats {
        let mut stats = CacheStats {
            evictions: self.evictions,
            insertions: self.insertions,
            ..CacheStats::default()
        };
        let format = self.format();
        for state in &self.layers {
            // A stored row counts once per layer: every retaining head
            // shares it.
            stats.recompute_entries += state.rows.len();
            stats.bytes_fp16 += state.rows.bytes_fp16();
            if format == Format::Input {
                // The host's K/V copy is not billed.
                continue;
            }
            for head in &state.heads {
                let arena = &head.kv;
                stats.kv_entries += arena.len();
                stats.bytes_fp16 += if format == Format::Int4 {
                    arena.len() * 2 * QuantFormat::Int4.bytes_for(arena.head_dim())
                } else {
                    arena.bytes_fp16()
                };
            }
        }
        stats
    }

    fn name(&self) -> &'static str {
        self.policy.name()
    }

    fn clone_box(&self) -> Box<dyn KvCacheBackend> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::PayloadRef;
    use kelle_tensor::QuantizedVector;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const HEADS: usize = 4;
    const HEAD_DIM: usize = 4;
    const CHANNELS: usize = HEADS * HEAD_DIM;

    fn insert_token(cache: &mut dyn KvCacheBackend, layer: usize, token: usize) {
        let keys: Vec<f32> = (0..HEADS)
            .flat_map(|h| vec![(token + h) as f32; HEAD_DIM])
            .collect();
        let values = keys.clone();
        cache.insert(
            layer,
            token,
            &[token as f32; CHANNELS],
            &keys,
            &values,
            HEAD_DIM,
        );
    }

    /// Inserts `token` into a one-head cache.
    fn insert_one_head(cache: &mut dyn KvCacheBackend, token: usize) {
        let v = [token as f32; HEAD_DIM];
        cache.insert(0, token, &v, &v, &v, HEAD_DIM);
    }

    /// Token ids retained by `(0, head)`, in entry order.
    fn retained(cache: &dyn KvCacheBackend, head: usize) -> Vec<usize> {
        let mut tokens = Vec::new();
        cache.for_each_entry(0, head, &mut |e| tokens.push(e.token));
        tokens
    }

    /// Reports `score(token)` for every entry of `(0, head)`, in entry order.
    fn observe(cache: &mut dyn KvCacheBackend, head: usize, score: impl Fn(usize) -> f32) {
        let scores: Vec<(usize, f32)> = retained(&*cache, head)
            .into_iter()
            .map(|t| (t, score(t)))
            .collect();
        cache.observe_attention(0, head, &scores);
    }

    /// Whether each entry of `(0, 0)` is stored for recomputation.
    fn recompute_flags(cache: &dyn KvCacheBackend) -> Vec<bool> {
        let mut flags = Vec::new();
        cache.for_each_entry(0, 0, &mut |e| {
            flags.push(matches!(e.payload, PayloadRef::Recompute { .. }))
        });
        flags
    }

    #[test]
    fn respects_per_head_budget() {
        let mut cache = CachePolicy::Aerp.build(CacheBudget::new(4).with_recent_window(1), HEADS);
        cache.finish_prefill(0);
        for t in 0..16 {
            insert_token(cache.as_mut(), 0, t);
        }
        for head in 0..HEADS {
            assert!(cache.entry_count(0, head) <= 4, "head {head}");
        }
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn eviction_targets_minimum_importance() {
        let mut cache = CachePolicy::H2o.build(CacheBudget::new(3), 1);
        cache.finish_prefill(0);
        for t in 0..3 {
            insert_one_head(cache.as_mut(), t);
        }
        cache.observe_attention(0, 0, &[(0, 0.6), (1, 0.05), (2, 0.35)]);
        insert_one_head(cache.as_mut(), 3);
        assert_eq!(
            retained(&*cache, 0),
            [0, 2, 3],
            "lowest-score token evicted"
        );
    }

    #[test]
    fn eviction_patterns_differ_across_heads() {
        let mut cache = CachePolicy::H2o.build(CacheBudget::new(3), 2);
        cache.finish_prefill(0);
        let insert = |cache: &mut dyn KvCacheBackend, token: usize| {
            cache.insert(
                0,
                token,
                &[token as f32; 8],
                &[1.0; 2 * HEAD_DIM],
                &[1.0; 2 * HEAD_DIM],
                HEAD_DIM,
            );
        };
        for t in 0..3 {
            insert(cache.as_mut(), t);
        }
        // Head 0 loves token 0, head 1 loves token 2.
        cache.observe_attention(0, 0, &[(0, 0.9), (1, 0.05), (2, 0.05)]);
        cache.observe_attention(0, 1, &[(0, 0.05), (1, 0.05), (2, 0.9)]);
        // Make token 1 clearly the victim in head 0, token 0 in head 1.
        cache.observe_attention(0, 1, &[(0, 0.0), (1, 0.3), (2, 0.0)]);
        insert(cache.as_mut(), 3);
        let head0 = retained(&*cache, 0);
        let head1 = retained(&*cache, 1);
        assert_ne!(head0, head1, "per-head eviction should diverge");
        assert!(head0.contains(&0));
        assert!(head1.contains(&2));
    }

    #[test]
    fn popular_tokens_switch_to_recompute_storage() {
        let mut cache = CachePolicy::Aerp.build(CacheBudget::new(8), HEADS);
        for t in 0..4 {
            insert_token(cache.as_mut(), 0, t);
        }
        // Every head retains every token at its insert, so all are stored
        // as input rows.
        assert_eq!(recompute_flags(&*cache), [true; 4]);
        let stats = cache.stats();
        assert_eq!(stats.kv_entries, 0);
        assert_eq!(stats.recompute_entries, 4);
    }

    #[test]
    fn recompute_disabled_stores_kv_only() {
        let mut cache = CachePolicy::H2o.build(CacheBudget::new(8), HEADS);
        for t in 0..4 {
            insert_token(cache.as_mut(), 0, t);
        }
        assert_eq!(recompute_flags(&*cache), [false; 4]);
        assert_eq!(cache.stats().recompute_entries, 0);
        assert_eq!(cache.stats().kv_entries, 4 * HEADS);
    }

    #[test]
    fn names_are_aerp_and_h2o() {
        assert_eq!(
            CachePolicy::Aerp.build(CacheBudget::new(2), 1).name(),
            "aerp"
        );
        assert_eq!(CachePolicy::H2o.build(CacheBudget::new(2), 1).name(), "h2o");
    }

    #[test]
    fn recompute_storage_is_smaller_for_popular_tokens() {
        // Storing x (C elements) once must be cheaper than storing KV in
        // every head (2 * C/H * H = 2C elements).
        let mut with_recompute = CachePolicy::Aerp.build(CacheBudget::new(8), HEADS);
        let mut without = CachePolicy::H2o.build(CacheBudget::new(8), HEADS);
        for t in 0..6 {
            insert_token(with_recompute.as_mut(), 0, t);
            insert_token(without.as_mut(), 0, t);
        }
        assert!(with_recompute.stats().bytes_fp16 < without.stats().bytes_fp16);
    }

    #[test]
    fn recompute_bytes_counted_once_per_layer() {
        // Regression for the stats contract: a stored input vector is shared
        // across every retaining head, so it must contribute exactly
        // `2 × channels` bytes per layer — not per head.
        let mut cache = CachePolicy::Aerp.build(CacheBudget::new(8), HEADS);
        for t in 0..3 {
            insert_token(cache.as_mut(), 0, t);
        }
        let stats = cache.stats();
        assert_eq!(stats.recompute_entries, 3);
        assert_eq!(stats.kv_entries, 0);
        assert_eq!(stats.bytes_fp16, 3 * 2 * CHANNELS);
    }

    #[test]
    fn h2o_bytes_track_live_arena_footprint() {
        let mut cache = CachePolicy::H2o.build(CacheBudget::new(2), 1);
        cache.finish_prefill(0);
        for t in 0..20 {
            insert_one_head(cache.as_mut(), t);
        }
        // 2 live entries × 2 vectors × 4 elements × 2 bytes.
        assert_eq!(cache.stats().bytes_fp16, 2 * 2 * 4 * 2);
    }

    #[test]
    fn full_eviction_drops_input_vector() {
        let budget = CacheBudget::new(2).with_recent_window(1);
        let mut cache = KvStore::for_policy(CachePolicy::Aerp, budget, 1);
        cache.finish_prefill(0);
        for t in 0..6 {
            insert_one_head(&mut cache, t);
        }
        // Only two tokens retained; the rest must not linger in input storage.
        assert_eq!(cache.layers[0].rows.len(), 2);
        assert_eq!(cache.stats().recompute_entries, 2);
    }

    #[test]
    fn a_row_lives_until_the_last_head_evicts_it() {
        let mut cache = CachePolicy::Aerp.build(CacheBudget::new(2), 2);
        cache.finish_prefill(0);
        let insert = |cache: &mut dyn KvCacheBackend, token: usize| {
            let v = [token as f32; 2 * HEAD_DIM];
            cache.insert(0, token, &v, &v, &v, HEAD_DIM);
        };
        insert(cache.as_mut(), 0);
        insert(cache.as_mut(), 1);
        // Head 0 keeps token 0, head 1 keeps token 1.
        cache.observe_attention(0, 0, &[(0, 0.9), (1, 0.1)]);
        cache.observe_attention(0, 1, &[(0, 0.1), (1, 0.9)]);
        insert(cache.as_mut(), 2);
        assert_eq!(
            (retained(&*cache, 0), retained(&*cache, 1)),
            (vec![0, 2], vec![1, 2])
        );
        assert_eq!(cache.stats().recompute_entries, 3);
        // Token 2 now outscores the others in both heads: token 0 leaves
        // head 0 and token 1 leaves head 1, so both of their rows go.
        cache.observe_attention(0, 0, &[(0, 0.0), (2, 5.0)]);
        cache.observe_attention(0, 1, &[(1, 0.0), (2, 5.0)]);
        insert(cache.as_mut(), 3);
        assert_eq!(
            (retained(&*cache, 0), retained(&*cache, 1)),
            (vec![2, 3], vec![2, 3])
        );
        assert_eq!(cache.stats().recompute_entries, 2);
        assert_eq!(cache.stats().bytes_fp16, 2 * 2 * 2 * HEAD_DIM);
    }

    #[test]
    fn prefill_retains_top_n_by_importance() {
        let mut cache = CachePolicy::H2o.build(CacheBudget::new(2), 1);
        // Simulate prefill: insert 6 tokens, give token 4 and 1 the highest scores.
        for t in 0..6 {
            insert_one_head(cache.as_mut(), t);
            observe(cache.as_mut(), 0, |t| match t {
                4 => 0.7,
                1 => 0.5,
                _ => 0.01,
            });
        }
        cache.finish_prefill(6);
        assert_eq!(retained(&*cache, 0), [1, 4]);
    }

    #[test]
    fn h2o_prefill_truncates_to_budget() {
        let mut cache = CachePolicy::H2o.build(CacheBudget::new(4), 1);
        for t in 0..16 {
            insert_one_head(cache.as_mut(), t);
        }
        assert_eq!(cache.entry_count(0, 0), 16, "pre-fill evicts nothing");
        cache.finish_prefill(16);
        assert_eq!(cache.entry_count(0, 0), 4);
    }

    #[test]
    fn h2o_respects_budget() {
        let mut cache = CachePolicy::H2o.build(CacheBudget::new(4).with_recent_window(1), 2);
        cache.finish_prefill(0);
        for t in 0..12 {
            let v = [t as f32; 2 * HEAD_DIM];
            cache.insert(0, t, &v, &v, &v, HEAD_DIM);
            observe(cache.as_mut(), 0, |t| 1.0 / (t + 1) as f32);
        }
        assert_eq!(cache.entry_count(0, 0), 4);
        assert_eq!(cache.entry_count(0, 1), 4);
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn h2o_keeps_heavy_hitters() {
        let mut cache = CachePolicy::H2o.build(CacheBudget::new(3).with_recent_window(1), 1);
        cache.finish_prefill(0);
        for t in 0..8 {
            insert_one_head(cache.as_mut(), t);
            // Token 2 always gets massive attention once present.
            observe(cache.as_mut(), 0, |t| if t == 2 { 0.9 } else { 0.01 });
        }
        let tokens = retained(&*cache, 0);
        assert!(tokens.contains(&2), "heavy hitter retained: {tokens:?}");
        assert!(tokens.contains(&7), "most recent retained: {tokens:?}");
    }

    #[test]
    fn h2o_eviction_prefers_low_score() {
        let mut cache = CachePolicy::H2o.build(CacheBudget::new(2), 1);
        cache.finish_prefill(0);
        insert_one_head(cache.as_mut(), 0);
        insert_one_head(cache.as_mut(), 1);
        cache.observe_attention(0, 0, &[(0, 0.9), (1, 0.01)]);
        insert_one_head(cache.as_mut(), 2);
        assert_eq!(retained(&*cache, 0), [0, 2]);
    }

    #[test]
    fn ties_go_to_the_oldest_token() {
        for mut cache in [
            CachePolicy::Aerp.build(CacheBudget::new(3), 1),
            CachePolicy::H2o.build(CacheBudget::new(3), 1),
        ] {
            cache.finish_prefill(0);
            for t in 0..3 {
                insert_one_head(cache.as_mut(), t);
            }
            cache.observe_attention(0, 0, &[(0, 0.5), (1, 0.25), (2, 0.25)]);
            insert_one_head(cache.as_mut(), 3);
            assert_eq!(retained(&*cache, 0), [0, 2, 3], "{}", cache.name());
        }
    }

    /// Sinks fill the budget and the recent window is empty, so no token is
    /// a candidate: the oldest token other than the arriving one goes.
    #[test]
    fn fallback_victim_is_the_oldest_non_incoming_token() {
        for mut cache in [
            CachePolicy::Aerp.build(CacheBudget::new(2).with_sink_tokens(2), 1),
            CachePolicy::H2o.build(CacheBudget::new(2).with_sink_tokens(2), 1),
        ] {
            cache.finish_prefill(0);
            insert_one_head(cache.as_mut(), 0);
            insert_one_head(cache.as_mut(), 1);
            cache.observe_attention(0, 0, &[(0, 0.9), (1, 0.1)]);
            insert_one_head(cache.as_mut(), 2);
            assert_eq!(retained(&*cache, 0), [1, 2], "{}", cache.name());
        }
    }

    #[test]
    fn observe_accumulates_scores_by_position() {
        let mut cache = KvStore::for_policy(CachePolicy::H2o, CacheBudget::new(8), 1);
        for t in 0..3 {
            insert_one_head(&mut cache, t);
        }
        cache.observe_attention(0, 0, &[(0, 0.5), (1, 0.25), (2, 0.0)]);
        cache.observe_attention(0, 0, &[(0, 0.25), (1, 0.25), (2, 0.0)]);
        assert_eq!(cache.layers[0].heads[0].scores, [0.75, 0.5, 0.0]);
    }

    #[test]
    #[should_panic(expected = "one score per entry of the head's last for_each_entry")]
    fn observe_rejects_scores_out_of_entry_order() {
        let mut cache = CachePolicy::Aerp.build(CacheBudget::new(8), 1);
        for t in 0..2 {
            insert_one_head(cache.as_mut(), t);
        }
        cache.observe_attention(0, 0, &[(1, 0.5), (0, 0.5)]);
    }

    #[test]
    fn high_score_labels_split_at_the_median() {
        let mut cache = CachePolicy::H2o.build(CacheBudget::new(8), 2);
        for t in 0..4 {
            let v = [t as f32; 2 * HEAD_DIM];
            cache.insert(0, t, &v, &v, &v, HEAD_DIM);
        }
        cache.observe_attention(0, 0, &[(0, 1.0), (1, 0.8), (2, 0.1), (3, 0.05)]);
        let labels = |cache: &dyn KvCacheBackend, head: usize| {
            let mut labels = Vec::new();
            cache.for_each_entry(0, head, &mut |e| labels.push(e.high_score()));
            labels
        };
        assert_eq!(labels(&*cache, 0), [true, true, false, false]);
        // An unobserved head ties at the median: every token is high-score
        // (the conservative refresh default).
        assert_eq!(labels(&*cache, 1), [true; 4]);
    }

    /// Every label a traversal hands out equals the eager rule computed
    /// here, whenever it is asked: a token is high-score when its score
    /// reaches the median (the upper one of an even count) of the scores its
    /// head holds at that moment.  Checked after every insert, observe and
    /// `finish_prefill` of a seeded sequence with evictions, for AERP and
    /// H2O.
    #[test]
    fn labels_follow_the_median_of_the_current_scores() {
        // SplitMix64, mapped to [0, 1).
        fn draw(state: &mut u64) -> f32 {
            *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 40) as f32 / (1u64 << 24) as f32
        }
        fn check(cache: &KvStore, at: &str) {
            for head in 0..HEADS {
                let scores = &cache.layers[0].heads[head].scores;
                let mut sorted = scores.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let expected: Vec<bool> = scores
                    .iter()
                    .map(|s| *s >= sorted[sorted.len() / 2])
                    .collect();
                let mut labels = Vec::new();
                cache.for_each_entry(0, head, &mut |e| labels.push(e.high_score()));
                assert_eq!(labels, expected, "{} head {head} {at}", cache.name());
            }
        }
        let budget = CacheBudget::new(6)
            .with_recent_window(2)
            .with_sink_tokens(1);
        for policy in [CachePolicy::Aerp, CachePolicy::H2o] {
            let mut cache = KvStore::for_policy(policy, budget, HEADS);
            let mut state = 7u64;
            for t in 0..40 {
                if t == 10 {
                    cache.finish_prefill(10);
                    check(&cache, "after finish_prefill");
                }
                insert_token(&mut cache, 0, t);
                check(&cache, &format!("after insert {t}"));
                for head in 0..HEADS {
                    let scores: Vec<(usize, f32)> = retained(&cache, head)
                        .into_iter()
                        .map(|t| (t, draw(&mut state)))
                        .collect();
                    cache.observe_attention(0, head, &scores);
                    check(&cache, &format!("after observe {t}, head {head}"));
                }
            }
            assert!(cache.stats().evictions > 0, "{}", cache.name());
        }
    }

    /// Through a real decode with eviction at every step, AERP never hands
    /// attention a `Kv` payload: every stored token is an input row.
    #[test]
    fn aerp_visits_no_kv_payload_at_any_decode_step() {
        use crate::fault::NoFaults;
        use crate::generation::{decode_step, prefill, GenerationState};
        use crate::{ModelConfig, ModelKind, SurrogateDims, SurrogateModel};

        let dims = SurrogateDims {
            layers: 2,
            heads: 4,
            channels: 32,
            ffn_dim: 64,
            vocab: 96,
        };
        let model = SurrogateModel::new(
            ModelConfig::for_kind(ModelKind::Llama2_7b).with_surrogate(dims),
            3,
        );
        let budget = CacheBudget::new(8)
            .with_recent_window(2)
            .with_sink_tokens(1);
        let mut cache = CachePolicy::Aerp.build(budget, dims.heads);
        let mut state = GenerationState::new();
        let prompt: Vec<usize> = (0..12).map(|i| (i * 37 + 5) % dims.vocab).collect();
        prefill(&model, &mut state, &prompt, cache.as_mut(), &mut NoFaults);
        for step in 0..24 {
            let evictions = cache.stats().evictions;
            decode_step(&model, &mut state, None, cache.as_mut(), &mut NoFaults);
            assert!(cache.stats().evictions > evictions, "step {step} evicts");
            for layer in 0..dims.layers {
                for head in 0..dims.heads {
                    cache.for_each_entry(layer, head, &mut |e| {
                        assert!(
                            matches!(e.payload, PayloadRef::Recompute { .. }),
                            "step {step}: layer {layer} head {head} visited a KV payload"
                        );
                    });
                }
            }
            assert_eq!(cache.stats().kv_entries, 0, "step {step}");
        }
    }

    /// The host's key and value beside each stored row are neither billed
    /// nor leaked: after a faulted decode far past the budget, AERP reports
    /// no KV entry and bills each stored row's `x` alone, and every head's
    /// copy holds exactly the entries it retains.
    #[test]
    fn the_host_kv_copy_is_neither_billed_nor_leaked() {
        use crate::fault::{BitFlipRates, ProbabilisticFaults};
        use crate::generation::{decode_step, prefill, GenerationState};
        use crate::{FaultInjector, ModelConfig, ModelKind, SurrogateDims, SurrogateModel};

        let dims = SurrogateDims {
            layers: 2,
            heads: 4,
            channels: 32,
            ffn_dim: 64,
            vocab: 96,
        };
        let model = SurrogateModel::new(
            ModelConfig::for_kind(ModelKind::Llama2_7b).with_surrogate(dims),
            3,
        );
        let budget = CacheBudget::new(8)
            .with_recent_window(2)
            .with_sink_tokens(1);
        let mut cache = KvStore::for_policy(CachePolicy::Aerp, budget, dims.heads);
        let mut faults = ProbabilisticFaults::new(BitFlipRates::uniform(1e-2), 9);
        let mut state = GenerationState::new();
        let prompt: Vec<usize> = (0..12).map(|i| (i * 37 + 5) % dims.vocab).collect();
        prefill(&model, &mut state, &prompt, &mut cache, &mut faults);
        for _ in 0..40 {
            decode_step(&model, &mut state, None, &mut cache, &mut faults);
        }
        assert!(faults.stats().bits_flipped > 0);
        let stats = cache.stats();
        assert!(stats.evictions > 0);
        assert_eq!(stats.kv_entries, 0);
        let rows: usize = cache.layers.iter().map(|layer| layer.rows.len()).sum();
        assert_eq!(stats.recompute_entries, rows);
        assert_eq!(stats.bytes_fp16, rows * dims.channels * 2);
        for (l, layer) in cache.layers.iter().enumerate() {
            for (h, head) in layer.heads.iter().enumerate() {
                assert!(head.tokens.len() <= 8, "layer {l} head {h}");
                assert_eq!(head.slots.len(), head.tokens.len(), "layer {l} head {h}");
                assert_eq!(head.kv.len(), head.tokens.len(), "layer {l} head {h}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one attention head")]
    fn zero_heads_panics() {
        CachePolicy::Aerp.build(CacheBudget::new(4), 0);
    }

    /// `KvStore::new` (the `FullKvCache` the benchmark builds) is the
    /// registry's full store: the same sequence leaves both with the same
    /// entries, labels and statistics.
    #[test]
    fn new_is_the_registrys_full_store() {
        let mut built = CachePolicy::Full.build(CacheBudget::new(2), HEADS);
        let mut new = KvStore::new();
        let snapshot = |cache: &dyn KvCacheBackend| {
            let mut entries = Vec::new();
            for head in 0..HEADS {
                cache.for_each_entry(0, head, &mut |e| {
                    let PayloadRef::Kv { key, value } = e.payload else {
                        unreachable!("the full store keeps K/V")
                    };
                    let kv = (key.to_vec(), value.to_vec());
                    entries.push((head, e.token, e.high_score(), kv));
                });
            }
            (entries, cache.stats(), cache.name())
        };
        for t in 0..6 {
            for cache in [built.as_mut(), &mut new as &mut dyn KvCacheBackend] {
                insert_token(cache, 0, t);
                if t % 2 == 0 {
                    for head in 0..HEADS {
                        observe(cache, head, |t| (t * (head + 1) % 5) as f32);
                    }
                }
            }
            assert_eq!(snapshot(&*built), snapshot(&new), "after token {t}");
        }
    }

    /// An observe that skips an entry breaks the trait's contract under
    /// every policy.
    #[test]
    fn every_policy_rejects_an_observe_that_skips_an_entry() {
        for policy in CachePolicy::all() {
            let mut cache = policy.build(CacheBudget::new(8), 1);
            for t in 0..3 {
                insert_one_head(cache.as_mut(), t);
            }
            let skipped = catch_unwind(AssertUnwindSafe(|| {
                cache.observe_attention(0, 0, &[(0, 0.5), (2, 0.5)]);
            }));
            assert!(
                skipped.is_err(),
                "{policy:?} accepted an observe skipping token 1"
            );
        }
    }

    /// Inserts `token` into `(0, head)` of a StreamingLLM store of `heads`
    /// heads, head `h` storing key and value `token + h`.
    fn insert_streaming(cache: &mut dyn KvCacheBackend, token: usize, heads: usize) {
        let keys: Vec<f32> = (0..heads)
            .flat_map(|h| vec![token as f32 + h as f32; 4])
            .collect();
        let values = keys.clone();
        cache.insert(0, token, &[0.0; 8], &keys, &values, 4);
    }

    #[test]
    fn streaming_respects_budget() {
        let budget = CacheBudget::new(4).with_sink_tokens(1);
        let mut cache = CachePolicy::StreamingLlm.build(budget, 2);
        for t in 0..10 {
            insert_streaming(cache.as_mut(), t, 2);
        }
        for head in 0..2 {
            assert_eq!(cache.entry_count(0, head), 4);
        }
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn streaming_keeps_sinks_and_recent() {
        let budget = CacheBudget::new(4).with_sink_tokens(2);
        let mut cache = CachePolicy::StreamingLlm.build(budget, 1);
        for t in 0..12 {
            insert_streaming(cache.as_mut(), t, 1);
        }
        let tokens = retained(&*cache, 0);
        // The two sinks plus the two most recent tokens.
        assert!(tokens.contains(&0));
        assert!(tokens.contains(&1));
        assert!(tokens.contains(&11));
        assert!(tokens.contains(&10));
        assert!(!tokens.contains(&5));
    }

    #[test]
    fn streaming_under_budget_keeps_everything() {
        let mut cache = CachePolicy::StreamingLlm.build(CacheBudget::new(16), 1);
        for t in 0..8 {
            insert_streaming(cache.as_mut(), t, 1);
        }
        assert_eq!(cache.entry_count(0, 0), 8);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn streaming_sink_entries_marked_high_score() {
        let budget = CacheBudget::new(8).with_sink_tokens(1);
        let mut cache = CachePolicy::StreamingLlm.build(budget, 1);
        for t in 0..4 {
            insert_streaming(cache.as_mut(), t, 1);
        }
        let mut high_score = Vec::new();
        cache.for_each_entry(0, 0, &mut |e| high_score.push((e.token, e.high_score())));
        assert!(high_score.contains(&(0, true)));
        assert!(high_score.contains(&(3, false)));
    }

    #[test]
    fn streaming_bytes_reflect_live_entries_not_retired_capacity() {
        // Regression for the stats contract: after heavy eviction churn the
        // reported footprint must be stride × live entries, not the peak the
        // arena buffers grew to.
        let budget = CacheBudget::new(4).with_sink_tokens(1);
        let mut cache = CachePolicy::StreamingLlm.build(budget, 1);
        for t in 0..64 {
            insert_streaming(cache.as_mut(), t, 1);
        }
        let stats = cache.stats();
        assert_eq!(stats.kv_entries, 4);
        // 4 entries × 2 vectors × 4 elements × 2 bytes.
        assert_eq!(stats.bytes_fp16, 4 * 2 * 4 * 2);
    }

    #[test]
    fn streaming_name_and_stats() {
        let cache = CachePolicy::StreamingLlm.build(CacheBudget::new(4), 1);
        assert_eq!(cache.name(), "streaming-llm");
        assert_eq!(cache.stats().kv_entries, 0);
    }

    /// The key stored for the first entry of `(0, 0)`.
    fn first_key(cache: &dyn KvCacheBackend) -> Vec<f32> {
        let mut keys = Vec::new();
        cache.for_each_entry(0, 0, &mut |e| match e.payload {
            PayloadRef::Kv { key, .. } => keys.push(key.to_vec()),
            PayloadRef::Recompute { .. } => panic!("expected KV payload"),
        });
        keys.swap_remove(0)
    }

    /// Inserts `token` into a one-head store at stride 8.
    fn insert_quarot(cache: &mut dyn KvCacheBackend, token: usize) {
        let key = vec![0.31 * (token as f32 + 1.0); 8];
        let value = vec![-0.17 * (token as f32 + 1.0); 8];
        cache.insert(0, token, &[0.0; 8], &key, &value, 8);
    }

    #[test]
    fn quarot_retains_all_tokens() {
        let mut cache = CachePolicy::QuaRotInt4.build(CacheBudget::new(4), 1);
        for t in 0..20 {
            insert_quarot(cache.as_mut(), t);
        }
        assert_eq!(cache.entry_count(0, 0), 20);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn quarot_dequantized_values_are_close_to_original() {
        let mut cache = CachePolicy::QuaRotInt4.build(CacheBudget::new(4), 1);
        insert_quarot(cache.as_mut(), 3);
        for k in first_key(&*cache) {
            assert!((k - 0.31 * 4.0).abs() < 0.02);
        }
    }

    #[test]
    fn quarot_stored_image_matches_fresh_dequantization() {
        // The arena keeps dequantize(quantize(x)); a fresh round trip must
        // reproduce it bit for bit (determinism of the quantizer).
        let mut cache = CachePolicy::QuaRotInt4.build(CacheBudget::new(4), 1);
        let key = vec![0.9, -0.4, 0.12, 0.7];
        let value = vec![-0.2, 0.33, 0.5, -0.9];
        cache.insert(0, 0, &[0.0; 4], &key, &value, 4);
        let fresh = QuantizedVector::quantize(&key, QuantFormat::Int4)
            .unwrap()
            .dequantize();
        let stored = first_key(&*cache);
        assert_eq!(
            stored.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            fresh.iter().map(|f| f.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn quarot_bytes_are_a_quarter_of_fulls() {
        let mut quarot = CachePolicy::QuaRotInt4.build(CacheBudget::new(4), 1);
        let mut full = CachePolicy::Full.build(CacheBudget::new(4), 1);
        for t in 0..8 {
            insert_quarot(quarot.as_mut(), t);
            insert_quarot(full.as_mut(), t);
        }
        assert_eq!(quarot.stats().bytes_fp16 * 4, full.stats().bytes_fp16);
    }
}
