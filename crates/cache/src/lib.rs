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
//! * [`QuaRotKvCache`] — QuaRot-style low-bit KV quantization with full token
//!   retention (Ashkboos et al.);
//! * [`AerpCache`] — **Kelle's AERP** (§4.1): per-head eviction by
//!   accumulated attention, sink and recent retention, and input-vector
//!   (recomputation) storage.  [`AerpCache::h2o`] builds H2O (Zhang et al.)
//!   from the same eviction core with per-head K/V storage: H2O's
//!   accumulated-attention heavy hitters are AERP without the recomputation.
//!
//! The cache-capacity description shared by all budgeted policies lives in
//! [`budget`], and the [`CachePolicy`] registry in [`policy`] builds any of
//! the above as a `Box<dyn KvCacheBackend>` from a budget — the single
//! factory the serving engine, sessions and accuracy experiments all
//! construct backends through.
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
//! assert_eq!(AerpCache::h2o(budget, 8).name(), "h2o");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aerp;
pub mod budget;
pub mod policy;
pub mod quantized;
pub mod streaming;

pub use aerp::AerpCache;
pub use budget::CacheBudget;
pub use policy::CachePolicy;
pub use quantized::QuaRotKvCache;
pub use streaming::StreamingLlmCache;

pub use kelle_model::{
    ArenaGrid, CacheStats, EntryRef, FullKvCache, InputSlab, KvArena, KvCacheBackend,
    MedianThreshold, PayloadRef, TokenId,
};
