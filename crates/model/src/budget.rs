//! Cache-capacity description shared by all budgeted policies.
//!
//! The paper expresses the cache budget as `N'`, the maximum number of tokens
//! whose KV vectors a head may retain (§4.1.1), plus two protected sets that
//! are always kept because of their disproportionate impact on generation
//! quality (§4.1.1, following StreamingLLM and H2O): the first few *sink*
//! tokens and a window of the *most recent* tokens.  §7.1 lists the values
//! used per task (e.g. `N' = 128`, recent window 64, 10 sink tokens for the
//! zero-shot tasks).

/// Capacity and protection parameters of a budgeted KV cache.
///
/// # Validity
///
/// A budget is *valid* when `sink_tokens + recent_window <= max_tokens`; a
/// larger protected set than the budget itself would silently over-protect
/// (the cache could never evict anything and the effective budget would be
/// the protected set, not `N'`).  The builder methods **clamp** rather than
/// reject — the documented choice, so budget arithmetic can never produce an
/// unusable configuration — with sink tokens taking precedence over the
/// recent window when both cannot fit.  Because `max_tokens` is public, a
/// built budget can still be shrunk below its protected set; consumers
/// normalise through [`clamped`](CacheBudget::clamped) (the policy factory
/// does this for every backend it builds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheBudget {
    /// Maximum number of tokens retained per head (`N'`).
    pub max_tokens: usize,
    /// Number of initial tokens always retained (attention sinks).
    pub(crate) sink_tokens: usize,
    /// Number of most recent tokens always retained.
    pub(crate) recent_window: usize,
}

impl CacheBudget {
    /// Creates a budget of `max_tokens` with no protected sets.
    ///
    /// # Panics
    ///
    /// Panics if `max_tokens == 0`.
    pub fn new(max_tokens: usize) -> Self {
        assert!(max_tokens > 0, "cache budget must allow at least one token");
        CacheBudget {
            max_tokens,
            sink_tokens: 0,
            recent_window: 0,
        }
    }

    /// Sets the number of protected sink tokens (builder style), clamped so
    /// the whole protected set still fits the budget (see
    /// [Validity](CacheBudget#validity)).
    pub fn with_sink_tokens(mut self, sink_tokens: usize) -> Self {
        self.sink_tokens = sink_tokens;
        self.clamped()
    }

    /// Sets the protected recent window (builder style), clamped so the whole
    /// protected set still fits the budget (see
    /// [Validity](CacheBudget#validity)).
    pub fn with_recent_window(mut self, recent_window: usize) -> Self {
        self.recent_window = recent_window;
        self.clamped()
    }

    /// Normalises the budget so `sink_tokens + recent_window <= max_tokens`.
    /// Sink tokens take precedence (they are few and disproportionately
    /// important, §4.1.1); the recent window absorbs the remainder.  Valid
    /// budgets pass through unchanged.
    pub fn clamped(mut self) -> Self {
        self.sink_tokens = self.sink_tokens.min(self.max_tokens);
        self.recent_window = self.recent_window.min(self.max_tokens - self.sink_tokens);
        self
    }

    /// Whether a token at `position` is protected from eviction when the
    /// current sequence length is `current_len`.
    pub(crate) fn is_protected(&self, position: usize, current_len: usize) -> bool {
        if position < self.sink_tokens {
            return true;
        }
        current_len <= self.recent_window || position >= current_len - self.recent_window
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether the protected sets fit within the budget.
    fn fits(b: &CacheBudget) -> bool {
        b.sink_tokens + b.recent_window <= b.max_tokens
    }

    #[test]
    fn builder_sets_fields() {
        let b = CacheBudget::new(256)
            .with_recent_window(32)
            .with_sink_tokens(4);
        assert_eq!(b.max_tokens, 256);
        assert_eq!(b.recent_window, 32);
        assert_eq!(b.sink_tokens, 4);
    }

    #[test]
    #[should_panic(expected = "at least one token")]
    fn zero_budget_panics() {
        CacheBudget::new(0);
    }

    #[test]
    fn protection_rules() {
        let b = CacheBudget::new(16)
            .with_sink_tokens(2)
            .with_recent_window(4);
        // Sinks are always protected.
        assert!(b.is_protected(0, 100));
        assert!(b.is_protected(1, 100));
        assert!(!b.is_protected(2, 100));
        // Recent window protects the tail.
        assert!(b.is_protected(96, 100));
        assert!(b.is_protected(99, 100));
        assert!(!b.is_protected(95, 100));
        // Short sequences are fully protected by the window.
        assert!(b.is_protected(1, 3));
    }

    #[test]
    fn protected_set_exactly_filling_budget_is_untouched() {
        // Edge: sink + window == max is valid and must pass through unchanged.
        let b = CacheBudget::new(8)
            .with_sink_tokens(3)
            .with_recent_window(5);
        assert_eq!((b.max_tokens, b.sink_tokens, b.recent_window), (8, 3, 5));
        assert!(fits(&b));
        assert_eq!(b.clamped(), b);
    }

    #[test]
    fn oversized_protected_set_is_clamped_sinks_first() {
        // Edge: sink + window == max + 1 (one past the boundary) loses one
        // window token; sinks are kept whole.
        let b = CacheBudget::new(8)
            .with_sink_tokens(3)
            .with_recent_window(6);
        assert_eq!((b.sink_tokens, b.recent_window), (3, 5));
        assert!(fits(&b));
        // Grossly oversized requests clamp to the budget, sinks first.
        let huge = CacheBudget::new(4)
            .with_recent_window(9)
            .with_sink_tokens(9);
        assert_eq!((huge.sink_tokens, huge.recent_window), (4, 0));
        assert!(fits(&huge));
        // Order matters only for how the remainder is split, never validity.
        let other = CacheBudget::new(4)
            .with_sink_tokens(9)
            .with_recent_window(9);
        assert!(fits(&other));
        assert_eq!((other.sink_tokens, other.recent_window), (4, 0));
        // A hand-assembled invalid struct is repaired by clamped().
        let raw = CacheBudget {
            max_tokens: 6,
            sink_tokens: 10,
            recent_window: 10,
        };
        assert!(!fits(&raw));
        let fixed = raw.clamped();
        assert_eq!((fixed.sink_tokens, fixed.recent_window), (6, 0));
    }
}
