//! # kelle-cache
//!
//! KV-cache management policies for the Kelle reproduction.
//!
//! All policies implement [`kelle_model::KvCacheBackend`] and can therefore be
//! plugged into the surrogate model unchanged:
//!
//! * [`FullKvCache`] (re-exported) — the uncompressed FP16 reference;
//! * [`StreamingLlmCache`] — StreamingLLM: attention-sink tokens + a recent
//!   window (Xiao et al.);
//! * [`H2oCache`] — H2O: accumulated-attention heavy hitters + a recent window
//!   (Zhang et al.);
//! * [`QuaRotKvCache`] — QuaRot-style low-bit KV quantization with full token
//!   retention (Ashkboos et al.);
//! * [`AerpCache`] — **Kelle's AERP** (§4.1): per-head attention-based
//!   eviction, token-popularity-driven recomputation storage, sink and recent
//!   retention.
//!
//! The shared importance-score bookkeeping lives in [`importance`], the
//! cache-capacity description shared by all budgeted policies in [`budget`],
//! and the [`CachePolicy`] registry in [`policy`] builds any of the above as
//! a `Box<dyn KvCacheBackend>` from a budget — the single factory the serving
//! engine, sessions and accuracy experiments all construct backends through.
//! When many sessions share one device, [`partition`] derives each admitted
//! session's effective `N'` share of a common budget (equal-split or
//! proportional-to-context).
//!
//! ## Example
//!
//! ```rust
//! use kelle_cache::{AerpCache, CacheBudget};
//! use kelle_model::KvCacheBackend;
//!
//! let budget = CacheBudget::new(128).with_recent_window(64).with_sink_tokens(10);
//! let cache = AerpCache::new(budget, 8);
//! assert_eq!(cache.name(), "aerp");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aerp;
pub mod budget;
pub mod h2o;
pub mod importance;
pub mod partition;
pub mod policy;
pub mod quantized;
pub mod streaming;

pub use aerp::{AerpCache, AerpConfig};
pub use budget::CacheBudget;
pub use h2o::H2oCache;
pub use importance::ImportanceTracker;
pub use partition::{BudgetPartitioner, PartitionMode};
pub use policy::CachePolicy;
pub use quantized::QuaRotKvCache;
pub use streaming::StreamingLlmCache;

pub use kelle_model::{
    ArenaGrid, CacheEntry, CacheStats, EntryPayload, EntryRef, FullKvCache, InputSlab, KvArena,
    KvCacheBackend, PayloadRef, TokenId,
};
