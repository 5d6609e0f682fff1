//! # kelle-model
//!
//! A functional transformer-decoder **surrogate LLM** with pluggable KV-cache
//! backends and fault injection.
//!
//! The Kelle paper evaluates its KV-cache management algorithms (AERP) and its
//! eDRAM refresh policy (2DRP) on LLaMA-2/3, Mistral, Qwen2 and OPT checkpoints.
//! Those checkpoints (and the GPU hours to run them) are not available in this
//! environment, so this crate provides the closest synthetic equivalent that
//! exercises the same code paths:
//!
//! * a real multi-head self-attention decoder operating on per-head KV caches,
//!   with the exact computation of the paper's Eq. 1 and Eq. 2 (including the
//!   permutation invariance of KV pairs that AERP exploits);
//! * architectural shapes taken from the real models ([`ModelConfig`]) and a
//!   documented `surrogate` scale-down used for functional simulation;
//! * synthetically structured weights producing heavy-tailed, sink-biased
//!   attention-score distributions (the empirical property behind H2O,
//!   StreamingLLM and AERP);
//! * hooks for KV-cache policies ([`KvCacheBackend`]) and for bit-level
//!   retention-fault injection ([`FaultInjector`]) at cache-read time;
//! * fidelity metrics (perplexity proxy, divergence, top-1 agreement) computed
//!   against the full-cache, fault-free reference run.
//!
//! See `DESIGN.md` §2 for the substitution rationale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arena;
pub mod attention;
pub mod cache;
pub mod config;
pub mod decoder;
pub mod fault;
pub mod generation;
pub mod hash;
pub mod metrics;
pub mod segment;
pub mod weights;

pub use arena::{ArenaGrid, InputSlab, KvArena, SharedKv};
pub use attention::{AttentionOutput, DecodeScratch, MultiHeadAttention};
pub use cache::{
    CacheEntry, CacheStats, EntryPayload, EntryRef, FullKvCache, KvCacheBackend, PayloadRef,
    TokenId,
};
pub use config::{ModelConfig, ModelKind, SurrogateDims};
pub use decoder::{DecoderLayer, SurrogateModel};
pub use fault::{
    FaultInjector, FaultStats, NoFaults, ProbabilisticFaults, SignificanceGroup, TokenGroup,
};
pub use generation::{
    DecodeStep, DecodeTrace, GenerationConfig, GenerationOutput, GenerationState, StepRecord,
};
pub use hash::{FastHashMap, FastHashSet};
pub use metrics::{FidelityAccumulator, FidelityMetrics};
pub use segment::{SegmentRecorder, SharedSegment};

/// Crate-wide result alias (errors are tensor-shaped failures from the substrate).
pub type Result<T> = std::result::Result<T, kelle_tensor::TensorError>;

// ---------------------------------------------------------------------------
// Send/Sync audit
// ---------------------------------------------------------------------------
//
// The threaded serving front-end (`kelle::parallel`) moves per-session state
// (cache backends over arenas, the fault-RNG stream, the generation cursor)
// onto worker threads and shares published prefix segments across them
// through `Arc`s.  These compile-time assertions pin the thread-safety
// contract of every type that crosses that boundary, so an accidental
// `Rc`/`Cell` in a future refactor fails the build here — with a comment —
// instead of surfacing as an inscrutable auto-trait error in `kelle-core`.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    // Arena storage: owned flat buffers; shared prefix bases are reached
    // through `Arc<ArenaGrid>`, which needs `ArenaGrid: Send + Sync`.
    assert_send_sync::<arena::KvArena>();
    assert_send_sync::<arena::ArenaGrid>();
    assert_send_sync::<arena::SharedKv>();
    assert_send_sync::<arena::InputSlab>();
    // Published prefix segments are read concurrently by hit sessions.
    assert_send_sync::<segment::SharedSegment>();
    // The model itself is shared by reference across all workers.
    assert_send_sync::<decoder::SurrogateModel>();
    // Per-session state is owned by (and moves between) worker shards.
    assert_send::<fault::ProbabilisticFaults>();
    assert_send::<fault::NoFaults>();
    assert_send::<generation::GenerationState>();
    // Cache backends move with the session that owns them (the
    // `KvCacheBackend: Send` bound).
    assert_send::<cache::FullKvCache>();
};
