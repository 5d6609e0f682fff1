//! The KV-cache policy registry.
//!
//! [`CachePolicy`] is a cheap, copyable description of *which* policy to
//! run, and [`CachePolicy::build`] is the single factory the engine,
//! sessions, the accuracy experiments and downstream tools construct caches
//! through: it turns a policy plus a [`CacheBudget`] into the one store,
//! [`KvStore`], set up for that policy, behind a [`KvCacheBackend`] trait
//! object.

use crate::aerp::KvStore;
use crate::budget::CacheBudget;
use crate::cache::KvCacheBackend;

/// A KV-cache management policy, by name.
///
/// The variants mirror the methods compared in the paper's Table 2; the
/// [`KvStore`] docs set out what each one decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CachePolicy {
    /// Full FP16 KV retention (the reference; ignores the budget).
    Full,
    /// StreamingLLM: attention sinks + recent window.
    StreamingLlm,
    /// H2O: accumulated-attention heavy hitters + recent window — AERP's
    /// eviction with K/V storage.
    H2o,
    /// QuaRot-style 4-bit KV quantization with full token retention (ignores
    /// the budget).
    QuaRotInt4,
    /// Kelle's AERP: per-head eviction + input-vector (recompute) storage.
    Aerp,
}

impl CachePolicy {
    /// All policies in the paper's Table 2 column order.
    pub fn all() -> [CachePolicy; 5] {
        [
            CachePolicy::Full,
            CachePolicy::StreamingLlm,
            CachePolicy::H2o,
            CachePolicy::QuaRotInt4,
            CachePolicy::Aerp,
        ]
    }

    /// Short display name (matches the store's `name()`).
    pub fn name(self) -> &'static str {
        match self {
            CachePolicy::Full => "full",
            CachePolicy::StreamingLlm => "streaming-llm",
            CachePolicy::H2o => "h2o",
            CachePolicy::QuaRotInt4 => "quarot-kv4",
            CachePolicy::Aerp => "aerp",
        }
    }

    /// Builds the store for this policy.
    ///
    /// `budget` is consumed by the budgeted policies (StreamingLLM, H2O,
    /// AERP) and ignored by `Full` / `QuaRotInt4`; `heads` is the surrogate
    /// attention-head count.
    ///
    /// # Panics
    ///
    /// Panics if `heads == 0`.
    pub fn build(self, budget: CacheBudget, heads: usize) -> Box<dyn KvCacheBackend> {
        Box::new(KvStore::for_policy(self, budget, heads))
    }
}

impl std::fmt::Display for CachePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget() -> CacheBudget {
        CacheBudget::new(8)
            .with_recent_window(2)
            .with_sink_tokens(1)
    }

    #[test]
    fn factory_names_match_backend_names() {
        for policy in CachePolicy::all() {
            let backend = policy.build(budget(), 4);
            assert_eq!(backend.name(), policy.name(), "{policy:?}");
        }
    }

    #[test]
    fn budgeted_policies_enforce_the_budget() {
        for policy in CachePolicy::all() {
            let mut backend = policy.build(budget(), 2);
            backend.finish_prefill(0);
            for t in 0..40 {
                let k: Vec<f32> = vec![t as f32; 8];
                backend.insert(0, t, &[t as f32; 8], &k, &k.clone(), 4);
                let mut scores: Vec<(usize, f32)> = Vec::new();
                backend.for_each_entry(0, 0, &mut |e| scores.push((e.token, 0.1)));
                backend.observe_attention(0, 0, &scores);
            }
            let len = backend.entry_count(0, 0);
            match policy {
                CachePolicy::StreamingLlm | CachePolicy::H2o | CachePolicy::Aerp => {
                    assert!(len <= budget().max_tokens, "{policy:?} holds {len}")
                }
                CachePolicy::Full | CachePolicy::QuaRotInt4 => assert_eq!(len, 40, "{policy:?}"),
            }
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(CachePolicy::Aerp.to_string(), "aerp");
        assert_eq!(CachePolicy::QuaRotInt4.to_string(), "quarot-kv4");
    }
}
