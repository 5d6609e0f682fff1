//! The KV-cache backend abstraction and the full (uncompressed) reference
//! cache.
//!
//! During decoding, the model inserts the current token's per-head key/value
//! vectors into the cache (paper Fig. 1b) and then attends over whatever the
//! cache exposes.  Different *policies* (full cache, StreamingLLM, H2O,
//! Kelle's AERP) decide which tokens survive and whether a token is stored as
//! KV vectors or as the input vector `x` to be recomputed (§4.1.2).  Those
//! policies live in the `kelle-cache` crate and implement [`KvCacheBackend`].
//!
//! # Arena layout and the decode allocation discipline
//!
//! Kelle treats the KV cache as a first-order, contiguously laid out memory
//! object — that is the whole premise of co-designing it with eDRAM — and the
//! storage layer mirrors that.  Every policy backs each `(layer, head)` with
//! a [`KvArena`](crate::arena::KvArena): one `Vec<TokenId>` plus two flat
//! `Vec<f32>` buffers strided by `head_dim`, entry `i` owning elements
//! `[i·head_dim, (i+1)·head_dim)`.  AERP's recompute-format input vectors
//! live in a per-layer slot-recycling [`InputSlab`](crate::arena::InputSlab).
//! The discipline for the decode hot path is:
//!
//! * **reads are borrows**: [`for_each_entry`](KvCacheBackend::for_each_entry)
//!   visits [`EntryRef`] views whose key/value/`x` slices point straight into
//!   the arenas — zero copies, zero allocation;
//! * **inserts append**: flat per-head slices are copied onto the arena tail;
//!   buffers warm up to the policy budget and then stop growing;
//! * **evictions splice in place** (order-preserving `copy_within`), so the
//!   entry iteration order — and therefore the floating-point accumulation
//!   order of attention — is the same as the historical per-token-`Vec`
//!   storage produced.
//!
//! The materializing [`entries`](KvCacheBackend::entries) adapter (a provided
//! trait method building owned [`CacheEntry`] values through
//! `for_each_entry`) survives as the *reference surface*: tests prove the
//! borrowed path computes **bit-for-bit identical** token streams and
//! probability distributions to decoding through this adapter, and the
//! benchmark suite uses it as the allocation-heavy pre-arena baseline.
//! (Absolute numeric results differ from pre-rewrite *binaries* only through
//! the independently documented [`dot`](kelle_tensor::dot) reference
//! ordering, which both paths share.)
//!
//! The trait is deliberately payload-centric: the attention code does not
//! care *why* a token survived, only what is stored for it.  Eq. 1 and Eq. 2
//! are invariant to the relative order of KV pairs (§2.2), so entries may be
//! visited in any order — a property the proptest suite checks explicitly.

use crate::arena::ArenaGrid;
use crate::hash::FastHashMap;
use serde::{Deserialize, Serialize};

/// Index of a token within the full (pre-eviction) sequence.
pub type TokenId = usize;

/// What is physically stored for a cached token in one attention head.
#[derive(Debug, Clone, PartialEq)]
pub enum EntryPayload {
    /// The key and value vectors are stored directly (each of length
    /// `head_dim`).
    Kv {
        /// Stored key vector.
        key: Vec<f32>,
        /// Stored value vector.
        value: Vec<f32>,
    },
    /// Only the layer-input vector `x` (length `channels`) is stored; the
    /// key/value must be recomputed through `W_K`/`W_V` before use (§4.1.2).
    Recompute {
        /// Stored input vector for the token.
        x: Vec<f32>,
    },
}

impl EntryPayload {
    /// Whether this payload requires recomputation.
    pub fn needs_recompute(&self) -> bool {
        matches!(self, EntryPayload::Recompute { .. })
    }
}

/// A single cached token entry for one `(layer, head)` pair, with owned
/// payload buffers.
///
/// This is the *materialized* form produced by the
/// [`entries`](KvCacheBackend::entries) reference adapter; the decode hot
/// path works on borrowed [`EntryRef`] views instead.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    /// The original sequence index of the token.
    pub token: TokenId,
    /// Stored data.
    pub payload: EntryPayload,
    /// Whether the policy currently classifies this token as a high-score
    /// (heavy-hitter) token.  Used by the fault injector to apply the
    /// HST/LST-dependent corruption rates of 2DRP.
    pub high_score: bool,
}

/// Borrowed view of a cached token's stored payload: slices pointing straight
/// into the backing arena (or input slab), valid for the duration of one
/// [`for_each_entry`](KvCacheBackend::for_each_entry) visit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PayloadRef<'a> {
    /// Key and value vectors stored directly (each of length `head_dim`).
    Kv {
        /// Stored key vector.
        key: &'a [f32],
        /// Stored value vector.
        value: &'a [f32],
    },
    /// Only the layer-input vector `x` (length `channels`) is stored.
    Recompute {
        /// Stored input vector for the token.
        x: &'a [f32],
    },
}

impl PayloadRef<'_> {
    /// Whether this payload requires recomputation.
    pub fn needs_recompute(&self) -> bool {
        matches!(self, PayloadRef::Recompute { .. })
    }

    /// Deep-copies the payload into its owned form.
    pub fn to_owned_payload(&self) -> EntryPayload {
        match *self {
            PayloadRef::Kv { key, value } => EntryPayload::Kv {
                key: key.to_vec(),
                value: value.to_vec(),
            },
            PayloadRef::Recompute { x } => EntryPayload::Recompute { x: x.to_vec() },
        }
    }
}

/// Borrowed view of a single cached token entry for one `(layer, head)`.
///
/// The zero-copy counterpart of [`CacheEntry`]: produced by
/// [`KvCacheBackend::for_each_entry`] and consumed by the fused attention
/// pass without touching the allocator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntryRef<'a> {
    /// The original sequence index of the token.
    pub token: TokenId,
    /// Stored data, borrowed from the backend.
    pub payload: PayloadRef<'a>,
    /// Whether the policy currently classifies this token as a high-score
    /// (heavy-hitter) token.
    pub high_score: bool,
}

impl EntryRef<'_> {
    /// Deep-copies the view into an owned [`CacheEntry`].
    pub fn to_owned_entry(&self) -> CacheEntry {
        CacheEntry {
            token: self.token,
            payload: self.payload.to_owned_payload(),
            high_score: self.high_score,
        }
    }
}

/// Aggregate occupancy statistics reported by a cache backend.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Number of per-head KV pairs currently stored (across all layers/heads).
    pub kv_entries: usize,
    /// Number of tokens currently stored as input vectors for recomputation
    /// (counted once per layer, since `x` is shared across heads).
    pub recompute_entries: usize,
    /// Total evictions performed so far.
    pub evictions: u64,
    /// Total tokens inserted so far (per layer insertions counted once).
    pub insertions: u64,
    /// Logical storage footprint in bytes assuming 16-bit elements.
    ///
    /// This is the **arena footprint of live data**: `stride × live entries ×
    /// 2 bytes` per stored vector, with `Recompute` payloads counted once per
    /// layer (the input vector is shared across heads).  Retired arena
    /// capacity — slots kept warm for reuse after evictions — is explicitly
    /// *not* counted; the figure feeds the eDRAM capacity/refresh model,
    /// which cares about bits that must be retained, not allocator bookkeeping.
    ///
    /// Always equals `shared_bytes + private_bytes` — the unit-of-account
    /// invariant the prefix-sharing ledger relies on (regression-tested).
    pub bytes_fp16: usize,
    /// The portion of [`bytes_fp16`](CacheStats::bytes_fp16) currently served
    /// from a refcounted shared prefix segment (zero-copy; the physical bytes
    /// are charged once globally, not per session).
    pub shared_bytes: usize,
    /// The portion of [`bytes_fp16`](CacheStats::bytes_fp16) stored privately
    /// by this cache instance.
    pub private_bytes: usize,
}

impl CacheStats {
    /// Sum of stored entries of both kinds.
    pub fn total_entries(&self) -> usize {
        self.kv_entries + self.recompute_entries
    }

    /// Assembles stats from the shared/private byte split, keeping the
    /// `bytes_fp16 == shared_bytes + private_bytes` invariant by
    /// construction.  The single constructor every backend reports through.
    pub fn with_split(
        kv_entries: usize,
        recompute_entries: usize,
        evictions: u64,
        insertions: u64,
        shared_bytes: usize,
        private_bytes: usize,
    ) -> CacheStats {
        CacheStats {
            kv_entries,
            recompute_entries,
            evictions,
            insertions,
            bytes_fp16: shared_bytes + private_bytes,
            shared_bytes,
            private_bytes,
        }
    }
}

/// A KV-cache management policy.
///
/// One backend instance manages the caches of *all* layers and heads of a
/// model; the `layer` argument selects which one an operation refers to.
///
/// The call sequence per generated token and layer is:
///
/// 1. [`insert`](KvCacheBackend::insert) with the token's input vector and
///    the per-head keys/values as flat `channels`-length slices;
/// 2. [`for_each_entry`](KvCacheBackend::for_each_entry) for each head,
///    visiting borrowed views of the tokens to attend over;
/// 3. [`observe_attention`](KvCacheBackend::observe_attention) for each head
///    with the post-softmax probabilities assigned to the visited entries, so
///    importance-tracking policies (H2O, AERP) can update their scores.
///
/// After pre-filling, [`finish_prefill`](KvCacheBackend::finish_prefill) lets
/// policies apply their prefill retention rule (e.g. keep the top-`N'`
/// tokens).
///
/// Within one logical step, consecutive `for_each_entry` calls for the same
/// `(layer, head)` with no intervening `&mut` access must visit the same
/// entries in the same order (the fused attention pass traverses twice:
/// scores, then value accumulation).
///
/// Backends are required to be [`Send`]: a serving session owns its backend
/// and the threaded serving front-end (`kelle::parallel`) moves whole
/// sessions between the coordinator and its worker shards.  Every stock
/// backend is plain owned data (arenas, hash maps, counters), so the bound
/// costs nothing; it only rules out `Rc`/thread-local tricks in custom
/// implementations.
///
/// `observe_attention(layer, head, ..)` must confine its effects to state
/// associated with that `(layer, head)` pair — it must not evict, reorder or
/// rescore entries of *other* heads (evictions belong in
/// [`insert`](KvCacheBackend::insert) /
/// [`finish_prefill`](KvCacheBackend::finish_prefill)), so what a head reads
/// within a step never depends on the order heads are visited in.  All stock
/// policies satisfy this (H2O/AERP accumulate into per-`(layer, head)` score
/// maps; the others ignore observes).
pub trait KvCacheBackend: std::fmt::Debug + Send {
    /// Inserts the current token for `layer`.
    ///
    /// `x` is the layer-input vector (length `channels`); `keys` / `values`
    /// are the per-head projections laid out head-major as flat slices of
    /// length `heads × head_dim` (head `h` owns
    /// `[h·head_dim, (h+1)·head_dim)`).
    fn insert(
        &mut self,
        layer: usize,
        token: TokenId,
        x: &[f32],
        keys: &[f32],
        values: &[f32],
        head_dim: usize,
    );

    /// Visits every cached entry of `(layer, head)` in the backend's entry
    /// order, handing the visitor borrowed [`EntryRef`] views into the
    /// backing storage.
    fn for_each_entry(
        &self,
        layer: usize,
        head: usize,
        visit: &mut dyn for<'e> FnMut(EntryRef<'e>),
    );

    /// Visits only the stored payloads of `(layer, head)`, in the same entry
    /// order as [`for_each_entry`](KvCacheBackend::for_each_entry).
    ///
    /// This is the second (value-accumulation) traversal of the fused
    /// attention pass, which needs no token ids or importance labels;
    /// backends that pay per-entry cost to classify HST/LST tokens (median
    /// lookups in score-tracking policies) should override it to skip that
    /// work.  The default delegates to `for_each_entry`.
    fn for_each_payload(
        &self,
        layer: usize,
        head: usize,
        visit: &mut dyn for<'e> FnMut(PayloadRef<'e>),
    ) {
        self.for_each_entry(layer, head, &mut |e| visit(e.payload));
    }

    /// Number of cached entries for `(layer, head)`.
    ///
    /// The default implementation counts through
    /// [`for_each_entry`](KvCacheBackend::for_each_entry); backends with O(1)
    /// knowledge should override it.
    fn entry_count(&self, layer: usize, head: usize) -> usize {
        let mut n = 0;
        self.for_each_entry(layer, head, &mut |_| n += 1);
        n
    }

    /// Materializes the cached entries of `(layer, head)` as owned values.
    ///
    /// This is the *reference adapter* over
    /// [`for_each_entry`](KvCacheBackend::for_each_entry): it deep-copies
    /// every visited view, which makes it convenient for tests, assertions
    /// and offline tooling — and exactly as allocation-heavy as the
    /// pre-arena storage layer, which is why the decode benchmark uses it as
    /// the baseline.  Hot paths must use `for_each_entry` directly.
    fn entries(&self, layer: usize, head: usize) -> Vec<CacheEntry> {
        let mut out = Vec::with_capacity(self.entry_count(layer, head));
        self.for_each_entry(layer, head, &mut |e| out.push(e.to_owned_entry()));
        out
    }

    /// Reports the post-softmax attention probabilities assigned to cached
    /// tokens during the current step.
    fn observe_attention(&mut self, layer: usize, head: usize, scores: &[(TokenId, f32)]);

    /// Offers a refcounted shared prefix base to the backend **before** the
    /// prefix-sharing machinery replays the prefix's insert/observe sequence
    /// into it.
    ///
    /// Backends whose arenas store the raw KV projections in insertion order
    /// override this to open their arenas over the base
    /// ([`ArenaGrid::attach_base`](crate::arena::ArenaGrid::attach_base)):
    /// the replayed inserts then *adopt* the shared entries zero-copy, and an
    /// eviction touching the prefix privatizes first (copy-on-evict).  The
    /// default ignores the offer — the replay simply stores private copies,
    /// which is always correct (the backend's state is a deterministic
    /// function of the insert/observe call sequence either way).  Backends
    /// that transform payloads on insert (e.g. quantization) should keep the
    /// default: their pushes can never match the raw shared data.
    ///
    /// Must only be called on a fresh (empty) cache.
    fn attach_shared_prefix(&mut self, prefix: &crate::arena::SharedKv) {
        let _ = prefix;
    }

    /// Signals the end of the pre-filling stage; `context_len` is the number
    /// of context tokens that were inserted.
    fn finish_prefill(&mut self, context_len: usize) {
        let _ = context_len;
    }

    /// Current occupancy statistics.
    fn stats(&self) -> CacheStats;

    /// Short policy name for reports (e.g. `"full"`, `"h2o"`, `"aerp"`).
    fn name(&self) -> &'static str;

    /// Deep-copies the backend behind a fresh box — the checkpointing hook
    /// the chaos-recovery machinery uses to snapshot a session's KV state at
    /// committed tick boundaries.
    ///
    /// The clone must be *bit-faithful*: replaying the same insert/observe
    /// sequence against original and clone must produce identical entries,
    /// statistics and eviction decisions.  All stock policies derive `Clone`
    /// (arenas, hash maps and counters copy trivially; shared prefix bases
    /// are refcounted `Arc`s whose clone is ledger-neutral).  The default
    /// panics, so ephemeral adapters that can never be checkpointed — e.g.
    /// the borrowing `SegmentRecorder` — need not (and cannot) implement it.
    fn clone_box(&self) -> Box<dyn KvCacheBackend> {
        unimplemented!(
            "KV cache backend `{}` does not support checkpoint cloning",
            self.name()
        )
    }
}

/// The uncompressed reference cache: every token of every head is retained as
/// raw KV vectors in per-`(layer, head)` arenas.  This corresponds to the
/// paper's "FP16 / full KV cache" baseline column in Table 2.
#[derive(Debug, Default, Clone)]
pub struct FullKvCache {
    /// (layer, head) -> contiguous KV arena in insertion order.
    store: ArenaGrid,
    /// (layer, head, token) -> accumulated attention score (used only to label
    /// HST/LST groups for fault-injection experiments).
    accumulated: FastHashMap<(usize, usize), FastHashMap<TokenId, f32>>,
    insertions: u64,
}

impl FullKvCache {
    /// Creates an empty full cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn median_score(scores: &FastHashMap<TokenId, f32>) -> f32 {
        if scores.is_empty() {
            return 0.0;
        }
        let mut values: Vec<f32> = scores.values().copied().collect();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        values[values.len() / 2]
    }
}

impl KvCacheBackend for FullKvCache {
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
        let scores = self.accumulated.get(&(layer, head));
        let median = scores.map(Self::median_score).unwrap_or(0.0);
        for i in 0..arena.len() {
            let token = arena.token_at(i);
            visit(EntryRef {
                token,
                payload: PayloadRef::Kv {
                    key: arena.key(i),
                    value: arena.value(i),
                },
                high_score: scores
                    .and_then(|s| s.get(&token))
                    .map(|s| *s >= median)
                    .unwrap_or(true),
            });
        }
    }

    fn for_each_payload(
        &self,
        layer: usize,
        head: usize,
        visit: &mut dyn for<'e> FnMut(PayloadRef<'e>),
    ) {
        let Some(arena) = self.store.get(layer, head) else {
            return;
        };
        for i in 0..arena.len() {
            visit(PayloadRef::Kv {
                key: arena.key(i),
                value: arena.value(i),
            });
        }
    }

    fn entry_count(&self, layer: usize, head: usize) -> usize {
        self.store.get(layer, head).map_or(0, |a| a.len())
    }

    fn observe_attention(&mut self, layer: usize, head: usize, scores: &[(TokenId, f32)]) {
        let acc = self.accumulated.entry((layer, head)).or_default();
        for (token, p) in scores {
            *acc.entry(*token).or_insert(0.0) += *p;
        }
    }

    fn attach_shared_prefix(&mut self, prefix: &crate::arena::SharedKv) {
        // The full cache stores raw KV in insertion order and never evicts:
        // adopted prefix entries stay zero-copy for the session's lifetime.
        self.store.attach_base(prefix);
    }

    fn stats(&self) -> CacheStats {
        CacheStats::with_split(
            self.store.total_entries(),
            0,
            0,
            self.insertions,
            self.store.shared_bytes_fp16(),
            self.store.private_bytes_fp16(),
        )
    }

    fn name(&self) -> &'static str {
        "full"
    }

    fn clone_box(&self) -> Box<dyn KvCacheBackend> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv(token: usize) -> (Vec<f32>, Vec<f32>) {
        (vec![token as f32; 4], vec![-(token as f32); 4])
    }

    /// Two-head insert helper using the flat head-major layout.
    fn insert2(cache: &mut FullKvCache, token: usize) {
        let (k, v) = kv(token);
        let keys: Vec<f32> = k.iter().chain(k.iter()).copied().collect();
        let values: Vec<f32> = v.iter().chain(v.iter()).copied().collect();
        cache.insert(0, token, &[0.0; 8], &keys, &values, 4);
    }

    #[test]
    fn full_cache_retains_everything() {
        let mut cache = FullKvCache::new();
        for t in 0..10 {
            insert2(&mut cache, t);
        }
        assert_eq!(cache.entries(0, 0).len(), 10);
        assert_eq!(cache.entries(0, 1).len(), 10);
        assert_eq!(cache.entries(1, 0).len(), 0);
        assert_eq!(cache.entry_count(0, 0), 10);
        assert_eq!(cache.entry_count(1, 0), 0);
        assert_eq!(cache.stats().kv_entries, 20);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn full_cache_stats_bytes() {
        let mut cache = FullKvCache::new();
        let (k, v) = kv(0);
        cache.insert(0, 0, &[0.0; 8], &k, &v, 4);
        // One head, key+value of 4 elements each at 2 bytes.
        assert_eq!(cache.stats().bytes_fp16, 16);
    }

    #[test]
    fn high_score_labels_follow_attention() {
        let mut cache = FullKvCache::new();
        for t in 0..4 {
            let (k, v) = kv(t);
            cache.insert(0, t, &[0.0; 8], &k, &v, 4);
        }
        // Token 2 receives most of the attention mass.
        cache.observe_attention(0, 0, &[(0, 0.05), (1, 0.05), (2, 0.8), (3, 0.1)]);
        let entries = cache.entries(0, 0);
        let e2 = entries.iter().find(|e| e.token == 2).unwrap();
        let e0 = entries.iter().find(|e| e.token == 0).unwrap();
        assert!(e2.high_score);
        assert!(!e0.high_score);
    }

    #[test]
    fn borrowed_views_match_materialized_entries() {
        let mut cache = FullKvCache::new();
        for t in 0..6 {
            insert2(&mut cache, t);
        }
        cache.observe_attention(0, 0, &[(0, 0.7), (3, 0.1)]);
        let owned = cache.entries(0, 0);
        let mut visited = Vec::new();
        cache.for_each_entry(0, 0, &mut |e| visited.push(e.to_owned_entry()));
        assert_eq!(owned, visited);
    }

    #[test]
    fn payload_kind_query() {
        let kv = EntryPayload::Kv {
            key: vec![1.0],
            value: vec![2.0],
        };
        let rc = EntryPayload::Recompute { x: vec![1.0] };
        assert!(!kv.needs_recompute());
        assert!(rc.needs_recompute());
        let kv_ref = PayloadRef::Kv {
            key: &[1.0],
            value: &[2.0],
        };
        let rc_ref = PayloadRef::Recompute { x: &[1.0] };
        assert!(!kv_ref.needs_recompute());
        assert!(rc_ref.needs_recompute());
        assert_eq!(kv_ref.to_owned_payload(), kv);
        assert_eq!(rc_ref.to_owned_payload(), rc);
    }

    #[test]
    fn stats_total_entries() {
        let stats = CacheStats {
            kv_entries: 3,
            recompute_entries: 2,
            ..CacheStats::default()
        };
        assert_eq!(stats.total_entries(), 5);
    }
}
