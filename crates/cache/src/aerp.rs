//! AERP — Kelle's attention-based eviction and recomputation policy (§4.1) —
//! and H2O, which is the same eviction rule without the recomputation.
//!
//! # One eviction core
//!
//! Each head keeps at most `N'` tokens (§4.1.1).  Every decode step adds the
//! post-softmax probability a head assigned to each of its cached tokens to
//! that token's accumulated score (Eq. 3).  When a new token arrives at a
//! full head, the cached token with the smallest score is evicted, ties going
//! to the oldest; sink tokens, the recent window and the arriving token are
//! never chosen (if nothing else is left, the oldest token other than the
//! arriving one goes).  Decisions are per head, so the retained token sets
//! *differ across heads*.  Nothing is evicted during pre-fill; after it,
//! [`finish_prefill`](KvCacheBackend::finish_prefill) keeps each head's
//! top-`N'` tokens plus the protected ones.
//!
//! H2O (Zhang et al., cited as \[98\] in the paper) ranks and evicts by
//! exactly this rule; it is the paper's "AEP" ablation (§8.1).  So both
//! policies are this one core, built by [`AerpCache::new`] and
//! [`AerpCache::h2o`].  Its state is the host-side analogue of the systolic
//! evictor (§5.3), which keeps one score register per cached token and finds
//! the minimum as the scores stream out: per head, the retained tokens in
//! insertion order and a parallel score array.  The HST/LST split of 2DRP
//! (§4.2) is the median of those scores, and it is selected only when a
//! read asks for a label: each `for_each_entry` hands its entries their
//! scores and a [`MedianThreshold`] that selects the head's median on a
//! reused buffer at the first label asked for.  Inserts, observes and
//! `finish_prefill` select nothing, and a read allocates nothing.
//!
//! # Two storage formats
//!
//! * **AERP stores `x`** (§4.1.2): a token's layer input (`C` elements) is
//!   kept once per layer in an [`InputSlab`], and K/V are recomputed through
//!   `W_K`/`W_V` when the token is read ([`PayloadRef::Recompute`]).  Each
//!   head holds the row's slab slot; a per-slot count of retaining heads
//!   frees the row when the last of them evicts the token.
//! * **H2O stores K/V** ([`PayloadRef::Kv`]): each head keeps a [`KvArena`]
//!   parallel to its token list, `2 × C/H` elements per token.
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
//! stored row, `2 × C/H` per retaining head for each KV entry — the quantity
//! the eDRAM capacity/refresh model consumes downstream.

use crate::budget::CacheBudget;
use kelle_model::{
    CacheStats, EntryRef, InputSlab, KvArena, KvCacheBackend, MedianThreshold, PayloadRef, TokenId,
};
use std::cell::RefCell;
use std::cmp::Ordering;

/// What a head stores for its retained tokens, parallel to its token list.
#[derive(Debug, Clone)]
enum Stored {
    /// AERP: the slab slot of each token's input row.
    Rows(Vec<usize>),
    /// H2O: each token's key and value.
    Kv(KvArena),
}

/// One head's retained tokens, in insertion order.
#[derive(Debug, Clone)]
struct Head {
    tokens: Vec<TokenId>,
    /// The accumulated attention score of each token (Eq. 3).
    scores: Vec<f32>,
    stored: Stored,
}

impl Head {
    /// The index of the token to evict: the lowest score among the
    /// unprotected tokens other than `incoming`, ties to the oldest; if all
    /// of those are protected, the oldest token other than `incoming`.
    fn victim(
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
    /// AERP: the input row of every token some head retains.
    rows: InputSlab,
    /// Per slab slot: how many heads retain its row.
    holders: Vec<usize>,
}

impl Layer {
    fn new(heads: usize, head_dim: usize, recompute: bool) -> Self {
        let head = Head {
            tokens: Vec::new(),
            scores: Vec::new(),
            stored: if recompute {
                Stored::Rows(Vec::new())
            } else {
                Stored::Kv(KvArena::new(head_dim))
            },
        };
        Layer {
            heads: vec![head; heads],
            rows: InputSlab::new(heads * head_dim),
            holders: Vec::new(),
        }
    }

    /// Appends `token` to every head with a zero score.
    fn push(&mut self, token: TokenId, x: &[f32], keys: &[f32], values: &[f32]) {
        let head_dim = keys.len() / self.heads.len();
        let mut slot = None;
        for (head, (key, value)) in self.heads.iter_mut().zip(
            keys.chunks_exact(head_dim)
                .zip(values.chunks_exact(head_dim)),
        ) {
            head.tokens.push(token);
            head.scores.push(0.0);
            match &mut head.stored {
                Stored::Rows(slots) => slots.push(*slot.get_or_insert_with(|| self.rows.push(x))),
                Stored::Kv(arena) => arena.push(token, key, value),
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
        match &mut head.stored {
            Stored::Rows(slots) => {
                let slot = slots.remove(i);
                self.holders[slot] -= 1;
                if self.holders[slot] == 0 {
                    self.rows.remove(slot);
                }
            }
            Stored::Kv(arena) => arena.remove_at(i),
        }
    }
}

/// The accumulated-attention eviction core behind AERP and H2O (see the
/// module docs).
#[derive(Debug, Clone)]
pub struct AerpCache {
    budget: CacheBudget,
    heads: usize,
    /// Whether tokens are stored as input rows (AERP) or as K/V (H2O).
    recompute: bool,
    layers: Vec<Layer>,
    current_len: usize,
    /// While true (until [`KvCacheBackend::finish_prefill`]), insertions do not
    /// trigger evictions: the paper's prefill rule retains the top-`N'` tokens
    /// only once the whole context has been scored (§4.1.1).
    in_prefill: bool,
    evictions: u64,
    insertions: u64,
    /// The median selection's reused buffer.
    ranks: RefCell<Vec<f32>>,
}

impl AerpCache {
    /// Creates an AERP cache: per-head eviction, tokens stored as input
    /// rows.
    ///
    /// # Panics
    ///
    /// Panics if `heads == 0`.
    pub fn new(budget: CacheBudget, heads: usize) -> Self {
        Self::with_format(budget, heads, true)
    }

    /// Creates an H2O cache: AERP's eviction with tokens stored as per-head
    /// K/V (the paper's "AEP" ablation).
    ///
    /// # Panics
    ///
    /// Panics if `heads == 0`.
    pub fn h2o(budget: CacheBudget, heads: usize) -> Self {
        Self::with_format(budget, heads, false)
    }

    fn with_format(budget: CacheBudget, heads: usize, recompute: bool) -> Self {
        assert!(heads > 0, "AERP requires at least one attention head");
        AerpCache {
            budget,
            heads,
            recompute,
            layers: Vec::new(),
            current_len: 0,
            in_prefill: true,
            evictions: 0,
            insertions: 0,
            ranks: RefCell::default(),
        }
    }

    /// Evicts from `(layer, head)` until it fits the budget (once pre-fill
    /// is over).
    fn settle(&mut self, layer: usize, head: usize, incoming: Option<TokenId>) {
        let state = &mut self.layers[layer];
        while !self.in_prefill && state.heads[head].tokens.len() > self.budget.max_tokens {
            let Some(i) = state.heads[head].victim(self.budget, self.current_len, incoming) else {
                break;
            };
            state.evict(head, i);
            self.evictions += 1;
        }
    }
}

impl KvCacheBackend for AerpCache {
    fn insert(
        &mut self,
        layer: usize,
        token: TokenId,
        x: &[f32],
        keys: &[f32],
        values: &[f32],
        head_dim: usize,
    ) {
        assert_eq!(
            keys.len(),
            self.heads * head_dim,
            "per-head keys must match head count"
        );
        self.current_len = self.current_len.max(token + 1);
        if layer >= self.layers.len() {
            let (heads, recompute) = (self.heads, self.recompute);
            self.layers
                .resize_with(layer + 1, || Layer::new(heads, head_dim, recompute));
        }
        self.layers[layer].push(token, x, keys, values);
        for head in 0..self.heads {
            self.settle(layer, head, Some(token));
        }
        self.insertions += 1;
    }

    /// Visits the retained entries in insertion order: a stored row borrowed
    /// from the layer's slab under its slot (AERP), or the head's K/V (H2O),
    /// each with its accumulated score and the head's threshold.
    fn for_each_entry(
        &self,
        layer: usize,
        head: usize,
        visit: &mut dyn for<'e> FnMut(EntryRef<'e>),
    ) {
        let Some(state) = self.layers.get(layer) else {
            return;
        };
        let head = &state.heads[head];
        let scores = |buffer: &mut Vec<f32>| buffer.extend_from_slice(&head.scores);
        let threshold = MedianThreshold::new(&scores, &self.ranks);
        let entries = head.tokens.iter().zip(&head.scores).enumerate();
        for (i, (&token, &score)) in entries {
            let payload = match &head.stored {
                Stored::Rows(slots) => PayloadRef::Recompute {
                    x: state.rows.row(slots[i]),
                    slot: slots[i],
                },
                Stored::Kv(arena) => PayloadRef::Kv {
                    key: arena.key(i),
                    value: arena.value(i),
                },
            };
            visit(EntryRef::scored(token, payload, score, &threshold));
        }
    }

    fn entry_count(&self, layer: usize, head: usize) -> usize {
        self.layers
            .get(layer)
            .map_or(0, |state| state.heads[head].tokens.len())
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
        for state in &self.layers {
            // A stored row counts once per layer: every retaining head
            // shares it.
            stats.recompute_entries += state.rows.len();
            stats.bytes_fp16 += state.rows.bytes_fp16();
            for head in &state.heads {
                if let Stored::Kv(arena) = &head.stored {
                    stats.kv_entries += arena.len();
                    stats.bytes_fp16 += arena.bytes_fp16();
                }
            }
        }
        stats
    }

    fn name(&self) -> &'static str {
        if self.recompute {
            "aerp"
        } else {
            "h2o"
        }
    }

    fn clone_box(&self) -> Box<dyn KvCacheBackend> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADS: usize = 4;
    const HEAD_DIM: usize = 4;
    const CHANNELS: usize = HEADS * HEAD_DIM;

    fn insert_token(cache: &mut AerpCache, layer: usize, token: usize) {
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
    fn insert_one_head(cache: &mut AerpCache, token: usize) {
        let v = [token as f32; HEAD_DIM];
        cache.insert(0, token, &v, &v, &v, HEAD_DIM);
    }

    /// Token ids retained by `(0, head)`, in entry order.
    fn retained(cache: &AerpCache, head: usize) -> Vec<usize> {
        let mut tokens = Vec::new();
        cache.for_each_entry(0, head, &mut |e| tokens.push(e.token));
        tokens
    }

    /// Reports `score(token)` for every entry of `(0, head)`, in entry order.
    fn observe(cache: &mut AerpCache, head: usize, score: impl Fn(usize) -> f32) {
        let scores: Vec<(usize, f32)> = retained(cache, head)
            .into_iter()
            .map(|t| (t, score(t)))
            .collect();
        cache.observe_attention(0, head, &scores);
    }

    /// Whether each entry of `(0, 0)` is stored for recomputation.
    fn recompute_flags(cache: &AerpCache) -> Vec<bool> {
        let mut flags = Vec::new();
        cache.for_each_entry(0, 0, &mut |e| {
            flags.push(matches!(e.payload, PayloadRef::Recompute { .. }))
        });
        flags
    }

    #[test]
    fn respects_per_head_budget() {
        let mut cache = AerpCache::new(CacheBudget::new(4).with_recent_window(1), HEADS);
        cache.finish_prefill(0);
        for t in 0..16 {
            insert_token(&mut cache, 0, t);
        }
        for head in 0..HEADS {
            assert!(cache.entry_count(0, head) <= 4, "head {head}");
        }
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn eviction_targets_minimum_importance() {
        let mut cache = AerpCache::h2o(CacheBudget::new(3), 1);
        cache.finish_prefill(0);
        for t in 0..3 {
            insert_one_head(&mut cache, t);
        }
        cache.observe_attention(0, 0, &[(0, 0.6), (1, 0.05), (2, 0.35)]);
        insert_one_head(&mut cache, 3);
        assert_eq!(retained(&cache, 0), [0, 2, 3], "lowest-score token evicted");
    }

    #[test]
    fn eviction_patterns_differ_across_heads() {
        let mut cache = AerpCache::h2o(CacheBudget::new(3), 2);
        cache.finish_prefill(0);
        let insert = |cache: &mut AerpCache, token: usize| {
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
            insert(&mut cache, t);
        }
        // Head 0 loves token 0, head 1 loves token 2.
        cache.observe_attention(0, 0, &[(0, 0.9), (1, 0.05), (2, 0.05)]);
        cache.observe_attention(0, 1, &[(0, 0.05), (1, 0.05), (2, 0.9)]);
        // Make token 1 clearly the victim in head 0, token 0 in head 1.
        cache.observe_attention(0, 1, &[(0, 0.0), (1, 0.3), (2, 0.0)]);
        insert(&mut cache, 3);
        let head0 = retained(&cache, 0);
        let head1 = retained(&cache, 1);
        assert_ne!(head0, head1, "per-head eviction should diverge");
        assert!(head0.contains(&0));
        assert!(head1.contains(&2));
    }

    #[test]
    fn popular_tokens_switch_to_recompute_storage() {
        let mut cache = AerpCache::new(CacheBudget::new(8), HEADS);
        for t in 0..4 {
            insert_token(&mut cache, 0, t);
        }
        // Every head retains every token at its insert, so all are stored
        // as input rows.
        assert_eq!(recompute_flags(&cache), [true; 4]);
        let stats = cache.stats();
        assert_eq!(stats.kv_entries, 0);
        assert_eq!(stats.recompute_entries, 4);
    }

    #[test]
    fn recompute_disabled_stores_kv_only() {
        let mut cache = AerpCache::h2o(CacheBudget::new(8), HEADS);
        for t in 0..4 {
            insert_token(&mut cache, 0, t);
        }
        assert_eq!(recompute_flags(&cache), [false; 4]);
        assert_eq!(cache.stats().recompute_entries, 0);
        assert_eq!(cache.stats().kv_entries, 4 * HEADS);
    }

    #[test]
    fn names_are_aerp_and_h2o() {
        assert_eq!(AerpCache::new(CacheBudget::new(2), 1).name(), "aerp");
        assert_eq!(AerpCache::h2o(CacheBudget::new(2), 1).name(), "h2o");
    }

    #[test]
    fn recompute_storage_is_smaller_for_popular_tokens() {
        // Storing x (C elements) once must be cheaper than storing KV in
        // every head (2 * C/H * H = 2C elements).
        let mut with_recompute = AerpCache::new(CacheBudget::new(8), HEADS);
        let mut without = AerpCache::h2o(CacheBudget::new(8), HEADS);
        for t in 0..6 {
            insert_token(&mut with_recompute, 0, t);
            insert_token(&mut without, 0, t);
        }
        assert!(with_recompute.stats().bytes_fp16 < without.stats().bytes_fp16);
    }

    #[test]
    fn recompute_bytes_counted_once_per_layer() {
        // Regression for the stats contract: a stored input vector is shared
        // across every retaining head, so it must contribute exactly
        // `2 × channels` bytes per layer — not per head.
        let mut cache = AerpCache::new(CacheBudget::new(8), HEADS);
        for t in 0..3 {
            insert_token(&mut cache, 0, t);
        }
        let stats = cache.stats();
        assert_eq!(stats.recompute_entries, 3);
        assert_eq!(stats.kv_entries, 0);
        assert_eq!(stats.bytes_fp16, 3 * 2 * CHANNELS);
    }

    #[test]
    fn h2o_bytes_track_live_arena_footprint() {
        let mut cache = AerpCache::h2o(CacheBudget::new(2), 1);
        cache.finish_prefill(0);
        for t in 0..20 {
            insert_one_head(&mut cache, t);
        }
        // 2 live entries × 2 vectors × 4 elements × 2 bytes.
        assert_eq!(cache.stats().bytes_fp16, 2 * 2 * 4 * 2);
    }

    #[test]
    fn full_eviction_drops_input_vector() {
        let mut cache = AerpCache::new(CacheBudget::new(2).with_recent_window(1), 1);
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
        let mut cache = AerpCache::new(CacheBudget::new(2), 2);
        cache.finish_prefill(0);
        let insert = |cache: &mut AerpCache, token: usize| {
            let v = [token as f32; 2 * HEAD_DIM];
            cache.insert(0, token, &v, &v, &v, HEAD_DIM);
        };
        insert(&mut cache, 0);
        insert(&mut cache, 1);
        // Head 0 keeps token 0, head 1 keeps token 1.
        cache.observe_attention(0, 0, &[(0, 0.9), (1, 0.1)]);
        cache.observe_attention(0, 1, &[(0, 0.1), (1, 0.9)]);
        insert(&mut cache, 2);
        assert_eq!(
            (retained(&cache, 0), retained(&cache, 1)),
            (vec![0, 2], vec![1, 2])
        );
        assert_eq!(cache.stats().recompute_entries, 3);
        // Token 2 now outscores the others in both heads: token 0 leaves
        // head 0 and token 1 leaves head 1, so both of their rows go.
        cache.observe_attention(0, 0, &[(0, 0.0), (2, 5.0)]);
        cache.observe_attention(0, 1, &[(1, 0.0), (2, 5.0)]);
        insert(&mut cache, 3);
        assert_eq!(
            (retained(&cache, 0), retained(&cache, 1)),
            (vec![2, 3], vec![2, 3])
        );
        assert_eq!(cache.stats().recompute_entries, 2);
        assert_eq!(cache.stats().bytes_fp16, 2 * 2 * 2 * HEAD_DIM);
    }

    #[test]
    fn prefill_retains_top_n_by_importance() {
        let mut cache = AerpCache::h2o(CacheBudget::new(2), 1);
        // Simulate prefill: insert 6 tokens, give token 4 and 1 the highest scores.
        for t in 0..6 {
            insert_one_head(&mut cache, t);
            observe(&mut cache, 0, |t| match t {
                4 => 0.7,
                1 => 0.5,
                _ => 0.01,
            });
        }
        cache.finish_prefill(6);
        assert_eq!(retained(&cache, 0), [1, 4]);
    }

    #[test]
    fn h2o_prefill_truncates_to_budget() {
        let mut cache = AerpCache::h2o(CacheBudget::new(4), 1);
        for t in 0..16 {
            insert_one_head(&mut cache, t);
        }
        assert_eq!(cache.entry_count(0, 0), 16, "pre-fill evicts nothing");
        cache.finish_prefill(16);
        assert_eq!(cache.entry_count(0, 0), 4);
    }

    #[test]
    fn h2o_respects_budget() {
        let mut cache = AerpCache::h2o(CacheBudget::new(4).with_recent_window(1), 2);
        cache.finish_prefill(0);
        for t in 0..12 {
            let v = [t as f32; 2 * HEAD_DIM];
            cache.insert(0, t, &v, &v, &v, HEAD_DIM);
            observe(&mut cache, 0, |t| 1.0 / (t + 1) as f32);
        }
        assert_eq!(cache.entry_count(0, 0), 4);
        assert_eq!(cache.entry_count(0, 1), 4);
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn h2o_keeps_heavy_hitters() {
        let mut cache = AerpCache::h2o(CacheBudget::new(3).with_recent_window(1), 1);
        cache.finish_prefill(0);
        for t in 0..8 {
            insert_one_head(&mut cache, t);
            // Token 2 always gets massive attention once present.
            observe(&mut cache, 0, |t| if t == 2 { 0.9 } else { 0.01 });
        }
        let tokens = retained(&cache, 0);
        assert!(tokens.contains(&2), "heavy hitter retained: {tokens:?}");
        assert!(tokens.contains(&7), "most recent retained: {tokens:?}");
    }

    #[test]
    fn h2o_eviction_prefers_low_score() {
        let mut cache = AerpCache::h2o(CacheBudget::new(2), 1);
        cache.finish_prefill(0);
        insert_one_head(&mut cache, 0);
        insert_one_head(&mut cache, 1);
        cache.observe_attention(0, 0, &[(0, 0.9), (1, 0.01)]);
        insert_one_head(&mut cache, 2);
        assert_eq!(retained(&cache, 0), [0, 2]);
    }

    #[test]
    fn ties_go_to_the_oldest_token() {
        for mut cache in [
            AerpCache::new(CacheBudget::new(3), 1),
            AerpCache::h2o(CacheBudget::new(3), 1),
        ] {
            cache.finish_prefill(0);
            for t in 0..3 {
                insert_one_head(&mut cache, t);
            }
            cache.observe_attention(0, 0, &[(0, 0.5), (1, 0.25), (2, 0.25)]);
            insert_one_head(&mut cache, 3);
            assert_eq!(retained(&cache, 0), [0, 2, 3], "{}", cache.name());
        }
    }

    /// Sinks fill the budget and the recent window is empty, so no token is
    /// a candidate: the oldest token other than the arriving one goes.
    #[test]
    fn fallback_victim_is_the_oldest_non_incoming_token() {
        for mut cache in [
            AerpCache::new(CacheBudget::new(2).with_sink_tokens(2), 1),
            AerpCache::h2o(CacheBudget::new(2).with_sink_tokens(2), 1),
        ] {
            cache.finish_prefill(0);
            insert_one_head(&mut cache, 0);
            insert_one_head(&mut cache, 1);
            cache.observe_attention(0, 0, &[(0, 0.9), (1, 0.1)]);
            insert_one_head(&mut cache, 2);
            assert_eq!(retained(&cache, 0), [1, 2], "{}", cache.name());
        }
    }

    #[test]
    fn observe_accumulates_scores_by_position() {
        let mut cache = AerpCache::h2o(CacheBudget::new(8), 1);
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
        let mut cache = AerpCache::new(CacheBudget::new(8), 1);
        for t in 0..2 {
            insert_one_head(&mut cache, t);
        }
        cache.observe_attention(0, 0, &[(1, 0.5), (0, 0.5)]);
    }

    #[test]
    fn high_score_labels_split_at_the_median() {
        let mut cache = AerpCache::h2o(CacheBudget::new(8), 2);
        for t in 0..4 {
            let v = [t as f32; 2 * HEAD_DIM];
            cache.insert(0, t, &v, &v, &v, HEAD_DIM);
        }
        cache.observe_attention(0, 0, &[(0, 1.0), (1, 0.8), (2, 0.1), (3, 0.05)]);
        let labels = |cache: &AerpCache, head: usize| {
            let mut labels = Vec::new();
            cache.for_each_entry(0, head, &mut |e| labels.push(e.high_score()));
            labels
        };
        assert_eq!(labels(&cache, 0), [true, true, false, false]);
        // An unobserved head ties at the median: every token is high-score
        // (the conservative refresh default).
        assert_eq!(labels(&cache, 1), [true; 4]);
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
        fn check(cache: &AerpCache, at: &str) {
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
        for mut cache in [AerpCache::new(budget, HEADS), AerpCache::h2o(budget, HEADS)] {
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
        use kelle_model::fault::NoFaults;
        use kelle_model::generation::{decode_step, prefill, GenerationState};
        use kelle_model::{ModelConfig, ModelKind, SurrogateDims, SurrogateModel};

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
        let mut cache = AerpCache::new(budget, dims.heads);
        let mut state = GenerationState::new();
        let prompt: Vec<usize> = (0..12).map(|i| (i * 37 + 5) % dims.vocab).collect();
        prefill(&model, &mut state, &prompt, &mut cache, &mut NoFaults);
        for step in 0..24 {
            let evictions = cache.stats().evictions;
            decode_step(&model, &mut state, None, &mut cache, &mut NoFaults);
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

    #[test]
    #[should_panic(expected = "at least one attention head")]
    fn zero_heads_panics() {
        AerpCache::new(CacheBudget::new(4), 0);
    }
}
