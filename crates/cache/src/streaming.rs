//! StreamingLLM-style cache: attention sinks + a sliding recent window.
//!
//! StreamingLLM (Xiao et al., cited as \[83\] in the paper) observes that the
//! first few tokens of a sequence act as *attention sinks* and must be kept,
//! and otherwise retains only the most recent tokens.  It requires no score
//! bookkeeping, which makes it cheap but lossy on tasks that need long-range
//! retrieval — exactly the behaviour Table 2 shows (large WK2/A-e degradation
//! relative to H2O and Kelle).
//!
//! Storage is one contiguous [`KvArena`](kelle_model::KvArena) per `(layer, head)`; evictions
//! splice the arena in place (order-preserving), so reads are borrowed slices
//! and steady-state decoding allocates nothing.

use crate::budget::CacheBudget;
use kelle_model::{ArenaGrid, CacheStats, EntryRef, KvCacheBackend, PayloadRef, TokenId};

/// The StreamingLLM cache policy.
#[derive(Debug, Clone)]
pub struct StreamingLlmCache {
    budget: CacheBudget,
    /// (layer, head) -> retained entries in insertion order.
    store: ArenaGrid,
    evictions: u64,
    insertions: u64,
}

impl StreamingLlmCache {
    /// Creates a StreamingLLM cache with the given budget.  The effective
    /// retained set is `sink_tokens` + the most recent tokens up to
    /// `max_tokens` total.
    pub fn new(budget: CacheBudget) -> Self {
        StreamingLlmCache {
            budget,
            store: ArenaGrid::new(),
            evictions: 0,
            insertions: 0,
        }
    }

    /// The configured budget.
    pub fn budget(&self) -> CacheBudget {
        self.budget
    }

    fn enforce(&mut self, layer: usize, head: usize) {
        let sink = self.budget.sink_tokens;
        let max = self.budget.max_tokens;
        if let Some(arena) = self.store.get_mut(layer, head) {
            while arena.len() > max {
                // Evict the oldest non-sink entry.
                let victim_index = arena.position_where(|t| t >= sink).unwrap_or(0);
                arena.remove_at(victim_index);
                self.evictions += 1;
            }
        }
    }
}

impl KvCacheBackend for StreamingLlmCache {
    fn insert(
        &mut self,
        layer: usize,
        token: TokenId,
        _x: &[f32],
        keys: &[f32],
        values: &[f32],
        head_dim: usize,
    ) {
        for (head, (k, v)) in keys
            .chunks_exact(head_dim)
            .zip(values.chunks_exact(head_dim))
            .enumerate()
        {
            self.store
                .get_or_create(layer, head, head_dim)
                .push(token, k, v);
            self.enforce(layer, head);
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
        for i in 0..arena.len() {
            let token = arena.token_at(i);
            let payload = PayloadRef::Kv {
                key: arena.key(i),
                value: arena.value(i),
            };
            // StreamingLLM keeps no score state; sinks and recent tokens
            // are its notion of "important".
            visit(EntryRef::labelled(
                token,
                payload,
                token < self.budget.sink_tokens,
            ));
        }
    }

    fn entry_count(&self, layer: usize, head: usize) -> usize {
        self.store.get(layer, head).map_or(0, |a| a.len())
    }

    fn observe_attention(&mut self, _layer: usize, _head: usize, _scores: &[(TokenId, f32)]) {
        // StreamingLLM ignores attention scores by design.
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
        "streaming-llm"
    }

    fn clone_box(&self) -> Box<dyn KvCacheBackend> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn insert_token(cache: &mut StreamingLlmCache, token: usize, heads: usize) {
        let keys: Vec<f32> = (0..heads)
            .flat_map(|h| vec![token as f32 + h as f32; 4])
            .collect();
        let values = keys.clone();
        cache.insert(0, token, &[0.0; 8], &keys, &values, 4);
    }

    #[test]
    fn respects_budget() {
        let mut cache = StreamingLlmCache::new(CacheBudget::new(4).with_sink_tokens(1));
        for t in 0..10 {
            insert_token(&mut cache, t, 2);
        }
        for head in 0..2 {
            assert_eq!(cache.entry_count(0, head), 4);
        }
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn keeps_sinks_and_recent() {
        let mut cache = StreamingLlmCache::new(CacheBudget::new(4).with_sink_tokens(2));
        for t in 0..12 {
            insert_token(&mut cache, t, 1);
        }
        let mut tokens = Vec::new();
        cache.for_each_entry(0, 0, &mut |e| tokens.push(e.token));
        // The two sinks plus the two most recent tokens.
        assert!(tokens.contains(&0));
        assert!(tokens.contains(&1));
        assert!(tokens.contains(&11));
        assert!(tokens.contains(&10));
        assert!(!tokens.contains(&5));
    }

    #[test]
    fn under_budget_keeps_everything() {
        let mut cache = StreamingLlmCache::new(CacheBudget::new(16));
        for t in 0..8 {
            insert_token(&mut cache, t, 1);
        }
        assert_eq!(cache.entry_count(0, 0), 8);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn sink_entries_marked_high_score() {
        let mut cache = StreamingLlmCache::new(CacheBudget::new(8).with_sink_tokens(1));
        for t in 0..4 {
            insert_token(&mut cache, t, 1);
        }
        let mut high_score = Vec::new();
        cache.for_each_entry(0, 0, &mut |e| high_score.push((e.token, e.high_score())));
        assert!(high_score.contains(&(0, true)));
        assert!(high_score.contains(&(3, false)));
    }

    #[test]
    fn bytes_reflect_live_entries_not_retired_capacity() {
        // Regression for the stats contract: after heavy eviction churn the
        // reported footprint must be stride × live entries, not the peak the
        // arena buffers grew to.
        let mut cache = StreamingLlmCache::new(CacheBudget::new(4).with_sink_tokens(1));
        for t in 0..64 {
            insert_token(&mut cache, t, 1);
        }
        let stats = cache.stats();
        assert_eq!(stats.kv_entries, 4);
        // 4 entries × 2 vectors × 4 elements × 2 bytes.
        assert_eq!(stats.bytes_fp16, 4 * 2 * 4 * 2);
    }

    #[test]
    fn name_and_stats() {
        let cache = StreamingLlmCache::new(CacheBudget::new(4));
        assert_eq!(cache.name(), "streaming-llm");
        assert_eq!(cache.stats().kv_entries, 0);
    }
}
