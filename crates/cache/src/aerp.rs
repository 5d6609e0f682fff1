//! AERP — Kelle's attention-based eviction and recomputation policy (§4.1).
//!
//! AERP manages the KV cache per attention head with three mechanisms:
//!
//! 1. **Attention-based eviction** (§4.1.1): each head keeps at most `N'`
//!    tokens; when a new token arrives at a full head, the cached token with
//!    the smallest accumulated attention score is evicted (Eq. 3).  Sink tokens
//!    and the recent window are never evicted.  Because eviction decisions are
//!    per head, the retained token set *differs across heads*.
//! 2. **Popularity-driven recomputation storage** (§4.1.2): a token whose KV
//!    vectors are retained in at least a fraction `θ` (default 50 %) of the
//!    heads is *popular*; instead of keeping `2 × C/H` values in every
//!    retaining head (total `2 · C/H · θH > C`), only the `1 × C` input vector
//!    `x` is stored once per layer, and K/V are recomputed through `W_K`/`W_V`
//!    when needed.  Once a token switches to input-vector storage its format
//!    stays fixed until it is evicted from every head.
//! 3. **Prefill retention** (§4.1.1): after pre-filling, each head keeps the
//!    top-`N'` tokens by importance (plus sinks and the recent window).
//!
//! Storage layout: each head owns a [`KvArena`] holding the KV-format tokens
//! in retained order; input vectors live once per layer in an [`InputSlab`]
//! (slot-recycling, so eviction churn is allocation-free).  The per-head
//! `retained` list is the single source of entry order; because the arena
//! holds exactly the retained KV-format tokens in that same order, entry
//! visitation walks the list with a monotone arena cursor — no per-token map
//! lookups on the hot path, and popular tokens borrow their `x` straight from
//! the slab.
//!
//! The storage-footprint accounting (`CacheStats::bytes_fp16`) reflects the
//! policy's *declared* storage: popular tokens cost `C` elements **once per
//! layer** (the input vector is shared across heads), unpopular retained
//! tokens cost `2 × C/H` elements per retaining head — live entries only,
//! never retired arena capacity — the quantity the eDRAM capacity/refresh
//! model consumes downstream.

use crate::budget::CacheBudget;
use crate::importance::ImportanceTracker;
use kelle_model::{
    CacheStats, EntryRef, FastHashMap, FastHashSet, InputSlab, KvArena, KvCacheBackend, PayloadRef,
    TokenId,
};

/// Configuration of the AERP policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AerpConfig {
    /// Cache budget (per head).
    pub budget: CacheBudget,
    /// Fraction of heads that must retain a token for it to be considered
    /// *popular* and switched to input-vector storage.  The paper uses 0.5.
    pub popularity_threshold: f64,
    /// Whether recomputation storage is enabled.  Disabling it yields the
    /// "AEP" ablation baseline of §8.1 (eviction only, no recomputation).
    pub recompute: bool,
}

impl AerpConfig {
    /// The default AERP configuration for a given budget (θ = 0.5,
    /// recomputation on).
    pub fn new(budget: CacheBudget) -> Self {
        AerpConfig {
            budget,
            popularity_threshold: 0.5,
            recompute: true,
        }
    }

    /// Disables recomputation (the AEP baseline).
    pub fn without_recompute(mut self) -> Self {
        self.recompute = false;
        self
    }

    /// Overrides the popularity threshold θ.
    pub fn with_popularity_threshold(mut self, theta: f64) -> Self {
        self.popularity_threshold = theta;
        self
    }
}

/// Per-layer state.
#[derive(Debug, Clone)]
struct LayerState {
    /// Which tokens each head currently retains (insertion-ordered; the
    /// single source of entry order).
    retained: Vec<Vec<TokenId>>,
    /// Per-head contiguous KV storage, holding exactly the retained
    /// KV-format (non-popular) tokens in retained order.
    kv: Vec<KvArena>,
    /// Input vectors of all currently retained tokens (needed both for
    /// recomputation storage and for potential later conversion).
    inputs: InputSlab,
    /// Tokens currently stored in input-vector (recompute) format.
    popular: FastHashSet<TokenId>,
}

impl LayerState {
    fn new(heads: usize, head_dim: usize, channels: usize) -> Self {
        LayerState {
            retained: vec![Vec::new(); heads],
            kv: (0..heads).map(|_| KvArena::new(head_dim)).collect(),
            inputs: InputSlab::new(channels),
            popular: FastHashSet::default(),
        }
    }

    fn retaining_heads(&self, token: TokenId) -> usize {
        self.retained.iter().filter(|r| r.contains(&token)).count()
    }

    fn drop_token_everywhere(&mut self, token: TokenId) {
        self.inputs.remove(token);
        self.popular.remove(&token);
        for kv in &mut self.kv {
            kv.remove_token(token);
        }
    }
}

/// Kelle's attention-based eviction and recomputation policy.
#[derive(Debug, Clone)]
pub struct AerpCache {
    config: AerpConfig,
    heads: usize,
    layers: FastHashMap<usize, LayerState>,
    importance: ImportanceTracker,
    current_len: usize,
    /// While true (until [`KvCacheBackend::finish_prefill`]), insertions do not
    /// trigger evictions: the paper's prefill rule retains the top-`N'` tokens
    /// only once the whole context has been scored (§4.1.1).
    in_prefill: bool,
    evictions: u64,
    insertions: u64,
}

impl AerpCache {
    /// Creates an AERP cache with the default configuration for `budget`.
    pub fn new(budget: CacheBudget, heads: usize) -> Self {
        Self::with_config(AerpConfig::new(budget), heads)
    }

    /// Creates an AERP cache with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `heads == 0` or the popularity threshold is outside `(0, 1]`.
    pub fn with_config(config: AerpConfig, heads: usize) -> Self {
        assert!(heads > 0, "AERP requires at least one attention head");
        assert!(
            config.popularity_threshold > 0.0 && config.popularity_threshold <= 1.0,
            "popularity threshold must be within (0, 1]"
        );
        AerpCache {
            config,
            heads,
            layers: FastHashMap::default(),
            importance: ImportanceTracker::new(),
            current_len: 0,
            in_prefill: true,
            evictions: 0,
            insertions: 0,
        }
    }

    /// The policy configuration.
    pub fn config(&self) -> &AerpConfig {
        &self.config
    }

    /// Number of tokens currently stored in recompute (input-vector) format in
    /// `layer`.
    pub fn popular_tokens(&self, layer: usize) -> usize {
        self.layers.get(&layer).map_or(0, |l| l.popular.len())
    }

    fn layer_mut(&mut self, layer: usize, head_dim: usize) -> &mut LayerState {
        let heads = self.heads;
        self.layers
            .entry(layer)
            .or_insert_with(|| LayerState::new(heads, head_dim, heads * head_dim))
    }

    /// Evicts the minimum-importance unprotected token from a full head.
    fn enforce_head(&mut self, layer: usize, head: usize, incoming: Option<TokenId>) {
        loop {
            let budget = self.config.budget;
            let current_len = self.current_len;
            let Some(state) = self.layers.get(&layer) else {
                return;
            };
            if state.retained[head].len() <= budget.max_tokens {
                return;
            }
            let candidates = state.retained[head]
                .iter()
                .copied()
                .filter(|&t| Some(t) != incoming && !budget.is_protected(t, current_len));
            let victim = self
                .importance
                .min_score_token(layer, head, candidates)
                .or_else(|| {
                    state.retained[head]
                        .iter()
                        .copied()
                        .find(|&t| Some(t) != incoming)
                });
            let Some(victim) = victim else { return };

            let state = self
                .layers
                .get_mut(&layer)
                .expect("layer state existence checked above");
            state.retained[head].retain(|&t| t != victim);
            state.kv[head].remove_token(victim);
            if state.retaining_heads(victim) == 0 {
                state.drop_token_everywhere(victim);
            }
            self.importance.remove(layer, head, victim);
            self.evictions += 1;
        }
    }

    /// Re-evaluates popularity-based storage formats for a layer (§4.1.2).
    ///
    /// Tokens retained in at least `θ` of the heads are converted to
    /// input-vector storage; the conversion is one-way (the format stays fixed
    /// until full eviction), matching the paper's observation that popular
    /// tokens rarely become unpopular.
    fn update_popularity(&mut self, layer: usize) {
        if !self.config.recompute {
            return;
        }
        let threshold = (self.config.popularity_threshold * self.heads as f64).ceil() as usize;
        let Some(state) = self.layers.get_mut(&layer) else {
            return;
        };
        // Retained order is the scan order; a token appears in `inputs` for as
        // long as any head retains it.  Dedup via a set so the union build
        // stays linear in the retained population.
        let mut tokens: Vec<TokenId> = Vec::new();
        let mut seen: FastHashSet<TokenId> = FastHashSet::default();
        for retained in &state.retained {
            for &t in retained {
                if seen.insert(t) {
                    tokens.push(t);
                }
            }
        }
        for token in tokens {
            if state.popular.contains(&token) {
                continue;
            }
            let retaining = state.retaining_heads(token);
            if retaining >= threshold.max(1) {
                state.popular.insert(token);
                // KV copies are dropped; the input vector alone is stored.
                for kv in &mut state.kv {
                    kv.remove_token(token);
                }
            }
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
        let state = self.layer_mut(layer, head_dim);
        state.inputs.insert(token, x);
        for (head, (k, v)) in keys
            .chunks_exact(head_dim)
            .zip(values.chunks_exact(head_dim))
            .enumerate()
        {
            state.retained[head].push(token);
            state.kv[head].push(token, k, v);
        }
        for head in 0..self.heads {
            self.importance.register(layer, head, token);
            if !self.in_prefill {
                self.enforce_head(layer, head, Some(token));
            }
        }
        self.update_popularity(layer);
        self.insertions += 1;
    }

    /// Visits the retained entries in retained order.  A monotone cursor
    /// pairs each KV-format token with its arena slot, and a popular token
    /// borrows its row (and the row's slot) straight from the layer's slab.
    fn for_each_entry(
        &self,
        layer: usize,
        head: usize,
        visit: &mut dyn for<'e> FnMut(EntryRef<'e>),
    ) {
        let Some(state) = self.layers.get(&layer) else {
            return;
        };
        // One median computation per traversal, not per token.
        let median = self.importance.median_threshold(layer, head);
        let arena = &state.kv[head];
        let mut cursor = 0usize;
        for &token in &state.retained[head] {
            let payload = if state.popular.contains(&token) {
                let (slot, x) = state
                    .inputs
                    .row(token)
                    .expect("the slab holds the input row of every retained token");
                PayloadRef::Recompute { x, slot }
            } else {
                assert!(
                    cursor < arena.len() && arena.token_at(cursor) == token,
                    "the arena holds exactly the retained KV-format tokens, in order"
                );
                let i = cursor;
                cursor += 1;
                PayloadRef::Kv {
                    key: arena.key(i),
                    value: arena.value(i),
                }
            };
            visit(EntryRef {
                token,
                payload,
                high_score: median.is_none_or(|m| self.importance.score(layer, head, token) >= m),
            });
        }
    }

    fn entry_count(&self, layer: usize, head: usize) -> usize {
        self.layers
            .get(&layer)
            .map_or(0, |state| state.retained[head].len())
    }

    fn observe_attention(&mut self, layer: usize, head: usize, scores: &[(TokenId, f32)]) {
        self.importance.accumulate(layer, head, scores);
    }

    fn finish_prefill(&mut self, context_len: usize) {
        self.in_prefill = false;
        self.current_len = self.current_len.max(context_len);
        let layers: Vec<usize> = self.layers.keys().copied().collect();
        for layer in layers {
            for head in 0..self.heads {
                self.enforce_head(layer, head, None);
            }
            self.update_popularity(layer);
        }
    }

    fn stats(&self) -> CacheStats {
        let mut stats = CacheStats {
            evictions: self.evictions,
            insertions: self.insertions,
            ..CacheStats::default()
        };
        for state in self.layers.values() {
            // Recompute payloads count once per layer: the input vector is
            // shared by every retaining head.
            stats.recompute_entries += state.popular.len();
            stats.bytes_fp16 += state.popular.len() * 2 * state.inputs.width();
            for kv in &state.kv {
                stats.kv_entries += kv.len();
                stats.bytes_fp16 += kv.bytes_fp16();
            }
        }
        stats
    }

    fn name(&self) -> &'static str {
        if self.config.recompute {
            "aerp"
        } else {
            "aep"
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

    /// Token ids retained by `(0, head)`, in entry order.
    fn retained(cache: &AerpCache, head: usize) -> Vec<usize> {
        let mut tokens = Vec::new();
        cache.for_each_entry(0, head, &mut |e| tokens.push(e.token));
        tokens
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
        let mut cache =
            AerpCache::with_config(AerpConfig::new(CacheBudget::new(3)).without_recompute(), 1);
        cache.finish_prefill(0);
        let insert = |cache: &mut AerpCache, token: usize| {
            cache.insert(
                0,
                token,
                &[token as f32; HEAD_DIM],
                &[token as f32; HEAD_DIM],
                &[token as f32; HEAD_DIM],
                HEAD_DIM,
            );
        };
        insert(&mut cache, 0);
        insert(&mut cache, 1);
        insert(&mut cache, 2);
        cache.observe_attention(0, 0, &[(0, 0.6), (1, 0.05), (2, 0.35)]);
        insert(&mut cache, 3);
        let tokens = retained(&cache, 0);
        assert!(
            !tokens.contains(&1),
            "lowest-score token evicted: {tokens:?}"
        );
        assert!(tokens.contains(&0));
        assert!(tokens.contains(&2));
        assert!(tokens.contains(&3));
    }

    #[test]
    fn eviction_patterns_differ_across_heads() {
        let mut cache =
            AerpCache::with_config(AerpConfig::new(CacheBudget::new(3)).without_recompute(), 2);
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
        cache.observe_attention(0, 1, &[(1, 0.3)]);
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
        // All tokens retained in all heads -> all popular -> recompute storage.
        assert_eq!(recompute_flags(&cache), [true; 4]);
        assert_eq!(cache.popular_tokens(0), 4);
        let stats = cache.stats();
        assert_eq!(stats.kv_entries, 0);
        assert_eq!(stats.recompute_entries, 4);
    }

    #[test]
    fn recompute_disabled_stores_kv_only() {
        let mut cache = AerpCache::with_config(
            AerpConfig::new(CacheBudget::new(8)).without_recompute(),
            HEADS,
        );
        for t in 0..4 {
            insert_token(&mut cache, 0, t);
        }
        assert_eq!(recompute_flags(&cache), [false; 4]);
        assert_eq!(cache.name(), "aep");
        assert_eq!(cache.stats().recompute_entries, 0);
    }

    #[test]
    fn recompute_storage_is_smaller_for_popular_tokens() {
        // With θ = 0.5 and all heads retaining, storing x (C elements) must be
        // cheaper than storing KV in every head (2 * C/H * H = 2C elements).
        let mut with_recompute = AerpCache::new(CacheBudget::new(8), HEADS);
        let mut without = AerpCache::with_config(
            AerpConfig::new(CacheBudget::new(8)).without_recompute(),
            HEADS,
        );
        for t in 0..6 {
            insert_token(&mut with_recompute, 0, t);
            insert_token(&mut without, 0, t);
        }
        assert!(with_recompute.stats().bytes_fp16 < without.stats().bytes_fp16);
    }

    #[test]
    fn recompute_bytes_counted_once_per_layer() {
        // Regression for the stats contract: a popular token's input vector
        // is shared across every retaining head, so it must contribute
        // exactly `2 × channels` bytes per layer — not per head.
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
    fn full_eviction_drops_input_vector() {
        let mut cache = AerpCache::new(CacheBudget::new(2).with_recent_window(1), 1);
        cache.finish_prefill(0);
        let insert = |cache: &mut AerpCache, token: usize| {
            cache.insert(
                0,
                token,
                &[token as f32; HEAD_DIM],
                &[token as f32; HEAD_DIM],
                &[token as f32; HEAD_DIM],
                HEAD_DIM,
            );
        };
        for t in 0..6 {
            insert(&mut cache, t);
        }
        // Only two tokens retained; the rest must not linger in input storage.
        let state = cache.layers.get(&0).unwrap();
        assert_eq!(state.inputs.len(), 2);
        assert!(state.popular.len() <= 2);
    }

    #[test]
    fn prefill_retains_top_n_by_importance() {
        let mut cache =
            AerpCache::with_config(AerpConfig::new(CacheBudget::new(2)).without_recompute(), 1);
        // Simulate prefill: insert 6 tokens, give token 4 and 1 the highest scores.
        for t in 0..6 {
            cache.insert(
                0,
                t,
                &[t as f32; HEAD_DIM],
                &[t as f32; HEAD_DIM],
                &[t as f32; HEAD_DIM],
                HEAD_DIM,
            );
            let obs: Vec<(usize, f32)> = retained(&cache, 0)
                .into_iter()
                .map(|t| match t {
                    4 => (4, 0.7),
                    1 => (1, 0.5),
                    t => (t, 0.01),
                })
                .collect();
            cache.observe_attention(0, 0, &obs);
        }
        cache.finish_prefill(6);
        let tokens = retained(&cache, 0);
        assert_eq!(tokens.len(), 2);
        assert!(tokens.contains(&1) && tokens.contains(&4), "{tokens:?}");
    }

    #[test]
    #[should_panic(expected = "the arena holds exactly the retained KV-format tokens, in order")]
    fn a_kv_token_missing_from_its_arena_breaks_a_named_invariant() {
        let mut cache = AerpCache::with_config(
            AerpConfig::new(CacheBudget::new(8)).without_recompute(),
            HEADS,
        );
        for t in 0..3 {
            insert_token(&mut cache, 0, t);
        }
        cache.layers.get_mut(&0).unwrap().kv[0].remove_token(1);
        cache.for_each_entry(0, 0, &mut |_| {});
    }

    #[test]
    #[should_panic(expected = "at least one attention head")]
    fn zero_heads_panics() {
        AerpCache::new(CacheBudget::new(4), 0);
    }
}
