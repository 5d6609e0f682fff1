//! The KV-cache policy registry.
//!
//! Every serving-time consumer of a cache backend — the engine, sessions, the
//! accuracy experiments, downstream tools — used to hand-roll its own
//! `Box::new(...)` match over the five policies.  [`CachePolicy`] centralises
//! that: it is a cheap, copyable description of *which* policy to run, and
//! [`CachePolicy::build`] is the single factory that turns a description plus
//! a [`CacheBudget`] into a ready [`KvCacheBackend`] trait object.

use crate::aerp::AerpCache;
use crate::budget::CacheBudget;
use crate::quantized::QuaRotKvCache;
use crate::streaming::StreamingLlmCache;
use kelle_model::{FullKvCache, KvCacheBackend};

/// A KV-cache management policy, by name.
///
/// The variants mirror the methods compared in the paper's Table 2; see the
/// backend types in this crate for the algorithmic details.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CachePolicy {
    /// Full FP16 KV retention (the reference; ignores the budget).
    Full,
    /// StreamingLLM: attention sinks + recent window.
    StreamingLlm,
    /// H2O: accumulated-attention heavy hitters + recent window — AERP's
    /// eviction with K/V storage ([`AerpCache::h2o`]).
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

    /// Short display name (matches the backend's `name()`).
    pub fn name(self) -> &'static str {
        match self {
            CachePolicy::Full => "full",
            CachePolicy::StreamingLlm => "streaming-llm",
            CachePolicy::H2o => "h2o",
            CachePolicy::QuaRotInt4 => "quarot-kv4",
            CachePolicy::Aerp => "aerp",
        }
    }

    /// Whether the policy enforces a token budget (and therefore evicts).
    pub fn is_budgeted(self) -> bool {
        matches!(
            self,
            CachePolicy::StreamingLlm | CachePolicy::H2o | CachePolicy::Aerp
        )
    }

    /// Builds a ready-to-use backend for this policy.
    ///
    /// `budget` is consumed by the budgeted policies and ignored by `Full` /
    /// `QuaRotInt4`; `heads` is the surrogate attention-head count, needed by
    /// the per-head eviction core of H2O and AERP.
    pub fn build(self, budget: CacheBudget, heads: usize) -> Box<dyn KvCacheBackend> {
        // Defensive normalisation: `CacheBudget`'s fields are public, so a
        // hand-assembled budget may over-protect; every backend built through
        // the registry gets a valid one.
        let budget = budget.clamped();
        match self {
            CachePolicy::Full => Box::new(FullKvCache::new()),
            CachePolicy::StreamingLlm => Box::new(StreamingLlmCache::new(budget)),
            CachePolicy::H2o => Box::new(AerpCache::h2o(budget, heads)),
            CachePolicy::QuaRotInt4 => Box::new(QuaRotKvCache::int4()),
            CachePolicy::Aerp => Box::new(AerpCache::new(budget, heads)),
        }
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
            if policy.is_budgeted() {
                assert!(len <= budget().max_tokens, "{policy:?} holds {len}");
            } else {
                assert_eq!(len, 40, "{policy:?}");
            }
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(CachePolicy::Aerp.to_string(), "aerp");
        assert_eq!(CachePolicy::QuaRotInt4.to_string(), "quarot-kv4");
    }
}
