//! H2O-style cache: accumulated-attention heavy hitters + a recent window.
//!
//! H2O (Zhang et al., cited as \[98\] in the paper) keeps the tokens with the
//! highest *accumulated* attention scores ("heavy hitters") alongside the most
//! recent tokens.  It is the closest prior policy to AERP: the difference is
//! that H2O neither stores input vectors for recomputation nor exploits
//! per-head popularity (§4.1.2), and in Kelle the score accumulation and
//! minimum search are offloaded to the systolic evictor rather than recomputed
//! on the host.
//!
//! Storage is one contiguous [`KvArena`](kelle_model::KvArena) per `(layer, head)` in insertion
//! order; evictions splice in place, reads are borrowed slices.

use crate::budget::CacheBudget;
use crate::importance::ImportanceTracker;
use kelle_model::{ArenaGrid, CacheStats, EntryRef, KvCacheBackend, PayloadRef, TokenId};

/// The H2O (heavy-hitter oracle) cache policy.
#[derive(Debug, Clone)]
pub struct H2oCache {
    budget: CacheBudget,
    store: ArenaGrid,
    importance: ImportanceTracker,
    current_len: usize,
    /// While true, insertions do not trigger evictions (prefill keeps all
    /// tokens until the whole context has been scored).
    in_prefill: bool,
    evictions: u64,
    insertions: u64,
}

impl H2oCache {
    /// Creates an H2O cache with the given budget.
    pub fn new(budget: CacheBudget) -> Self {
        H2oCache {
            budget,
            store: ArenaGrid::new(),
            importance: ImportanceTracker::new(),
            current_len: 0,
            in_prefill: true,
            evictions: 0,
            insertions: 0,
        }
    }

    /// The configured budget.
    pub fn budget(&self) -> CacheBudget {
        self.budget
    }

    /// Evicts minimum-importance tokens until the head fits the budget.
    ///
    /// The freshly arrived token (`incoming`), protected sinks and the recent
    /// window are never chosen as victims (matching §4.1.1: the arrival of the
    /// `(N'+1)`-th token evicts one of the *previous* `N'` tokens).
    fn enforce(&mut self, layer: usize, head: usize, incoming: Option<TokenId>) {
        loop {
            let Some(arena) = self.store.get(layer, head) else {
                return;
            };
            if arena.len() <= self.budget.max_tokens {
                return;
            }
            let candidates = arena
                .iter_tokens()
                .filter(|&t| Some(t) != incoming && !self.budget.is_protected(t, self.current_len));
            let victim = self
                .importance
                .min_score_token(layer, head, candidates)
                .or_else(|| arena.first_token());
            let Some(victim) = victim else { return };
            if let Some(arena) = self.store.get_mut(layer, head) {
                if arena.remove_token(victim) {
                    self.importance.remove(layer, head, victim);
                    self.evictions += 1;
                } else {
                    return;
                }
            }
        }
    }
}

impl KvCacheBackend for H2oCache {
    fn insert(
        &mut self,
        layer: usize,
        token: TokenId,
        _x: &[f32],
        keys: &[f32],
        values: &[f32],
        head_dim: usize,
    ) {
        self.current_len = self.current_len.max(token + 1);
        let heads = keys.len() / head_dim;
        for (head, (k, v)) in keys
            .chunks_exact(head_dim)
            .zip(values.chunks_exact(head_dim))
            .enumerate()
        {
            self.store
                .get_or_create(layer, head, head_dim)
                .push(token, k, v);
        }
        for head in 0..heads {
            self.importance.register(layer, head, token);
            if !self.in_prefill {
                self.enforce(layer, head, Some(token));
            }
        }
        self.insertions += 1;
    }

    fn for_each_entry(
        &self,
        layer: usize,
        head: usize,
        visit: &mut dyn for<'e> FnMut(EntryRef<'e>),
    ) {
        let Some(arena) = self.store.get(layer, head) else {
            return;
        };
        // One median computation per traversal (not per token).
        let median = self.importance.median_threshold(layer, head);
        for i in 0..arena.len() {
            let token = arena.token_at(i);
            visit(EntryRef {
                token,
                payload: PayloadRef::Kv {
                    key: arena.key(i),
                    value: arena.value(i),
                },
                high_score: median.is_none_or(|m| self.importance.score(layer, head, token) >= m),
            });
        }
    }

    fn entry_count(&self, layer: usize, head: usize) -> usize {
        self.store.get(layer, head).map_or(0, |a| a.len())
    }

    fn observe_attention(&mut self, layer: usize, head: usize, scores: &[(TokenId, f32)]) {
        self.importance.accumulate(layer, head, scores);
    }

    fn finish_prefill(&mut self, context_len: usize) {
        self.in_prefill = false;
        self.current_len = self.current_len.max(context_len);
        // Retain only the top-N' tokens (plus protected ones) per head.
        let keys: Vec<(usize, usize)> = self.store.keys().collect();
        for (layer, head) in keys {
            self.enforce(layer, head, None);
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            kv_entries: self.store.total_entries(),
            recompute_entries: 0,
            evictions: self.evictions,
            insertions: self.insertions,
            bytes_fp16: self.store.bytes_fp16(),
        }
    }

    fn name(&self) -> &'static str {
        "h2o"
    }

    fn clone_box(&self) -> Box<dyn KvCacheBackend> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn insert_token(cache: &mut H2oCache, token: usize, heads: usize) {
        let keys: Vec<f32> = (0..heads).flat_map(|_| vec![token as f32; 4]).collect();
        let values = keys.clone();
        cache.insert(0, token, &[0.0; 8], &keys, &values, 4);
    }

    /// Token ids retained by `(0, 0)`, in entry order.
    fn retained(cache: &H2oCache) -> Vec<usize> {
        let mut tokens = Vec::new();
        cache.for_each_entry(0, 0, &mut |e| tokens.push(e.token));
        tokens
    }

    #[test]
    fn respects_budget() {
        let mut cache = H2oCache::new(CacheBudget::new(4).with_recent_window(1));
        cache.finish_prefill(0);
        for t in 0..12 {
            insert_token(&mut cache, t, 2);
            let obs: Vec<(usize, f32)> = retained(&cache)
                .into_iter()
                .map(|t| (t, 1.0 / (t + 1) as f32))
                .collect();
            cache.observe_attention(0, 0, &obs);
        }
        assert_eq!(cache.entry_count(0, 0), 4);
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn keeps_heavy_hitters() {
        let mut cache = H2oCache::new(CacheBudget::new(3).with_recent_window(1));
        cache.finish_prefill(0);
        for t in 0..8 {
            insert_token(&mut cache, t, 1);
            // Token 2 always gets massive attention once present.
            let obs: Vec<(usize, f32)> = retained(&cache)
                .into_iter()
                .map(|t| if t == 2 { (2, 0.9) } else { (t, 0.01) })
                .collect();
            cache.observe_attention(0, 0, &obs);
        }
        let tokens = retained(&cache);
        assert!(tokens.contains(&2), "heavy hitter retained: {tokens:?}");
        assert!(tokens.contains(&7), "most recent retained: {tokens:?}");
    }

    #[test]
    fn prefill_truncates_to_budget() {
        let mut cache = H2oCache::new(CacheBudget::new(4));
        for t in 0..16 {
            insert_token(&mut cache, t, 1);
        }
        cache.finish_prefill(16);
        assert!(cache.entry_count(0, 0) <= 4);
    }

    #[test]
    fn eviction_prefers_low_score() {
        let mut cache = H2oCache::new(CacheBudget::new(2));
        cache.finish_prefill(0);
        insert_token(&mut cache, 0, 1);
        insert_token(&mut cache, 1, 1);
        cache.observe_attention(0, 0, &[(0, 0.9), (1, 0.01)]);
        insert_token(&mut cache, 2, 1);
        let tokens = retained(&cache);
        assert!(tokens.contains(&0));
        assert!(!tokens.contains(&1));
    }

    #[test]
    fn bytes_track_live_arena_footprint() {
        let mut cache = H2oCache::new(CacheBudget::new(2));
        cache.finish_prefill(0);
        for t in 0..20 {
            insert_token(&mut cache, t, 1);
        }
        // 2 live entries × 2 vectors × 4 elements × 2 bytes.
        assert_eq!(cache.stats().bytes_fp16, 2 * 2 * 4 * 2);
    }

    #[test]
    fn name_is_h2o() {
        assert_eq!(H2oCache::new(CacheBudget::new(2)).name(), "h2o");
    }
}
