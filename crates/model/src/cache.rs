//! The KV-cache API: the [`KvCacheBackend`] abstraction, the one store that
//! implements it for every policy, [`KvStore`], and the [`CachePolicy`]
//! registry that builds it from a [`CacheBudget`].
//!
//! During decoding, the model inserts the current token's per-head key/value
//! vectors into the cache (paper Fig. 1b) and then attends over whatever the
//! cache exposes.  The *policies* of the paper's Table 2 (full cache,
//! StreamingLLM, H2O, QuaRot, Kelle's AERP) are settings of the one store,
//! which decides at four points by its policy: which token is the victim,
//! when it evicts, the format a token is stored in — K/V vectors, their int4
//! image, or the input vector `x` to be recomputed (§4.1.2) — and how an
//! entry is labelled for 2DRP.  The store under [`CachePolicy::Full`] is the
//! uncompressed reference.
//!
//! ```rust
//! use kelle_model::cache::{CacheBudget, CachePolicy, KvCacheBackend};
//!
//! let budget = CacheBudget::new(128).with_recent_window(64).with_sink_tokens(10);
//! assert_eq!(CachePolicy::Aerp.build(budget, 8).name(), "aerp");
//! assert_eq!(CachePolicy::H2o.build(budget, 8).name(), "h2o");
//! assert_eq!(CachePolicy::Full.build(budget, 8).name(), "full");
//! ```
//!
//! # Arena layout and the decode allocation discipline
//!
//! Kelle treats the KV cache as a first-order, contiguously laid out memory
//! object — that is the whole premise of co-designing it with eDRAM — and the
//! storage layer mirrors that.  Every policy that stores K/V backs each
//! `(layer, head)` with an arena of two flat `Vec<f32>` buffers strided by
//! `head_dim`, entry `i` owning elements `[i·head_dim, (i+1)·head_dim)`, and
//! the head keeps its tokens and their scores in parallel arrays.  AERP
//! stores each token's input vector once per layer in a slot-recycling slab,
//! and each of its heads holds the slots of the rows it retains, beside a
//! host-only arena of their keys and values.
//! The discipline for the decode hot path is:
//!
//! * **reads are borrows**: [`for_each_entry`](KvCacheBackend::for_each_entry)
//!   visits [`EntryRef`] views whose key/value/`x` slices point straight into
//!   the arenas — zero copies, zero allocation; the attention pass copies
//!   each stored word it reads into its scratch, where the fault injector
//!   corrupts it, so the stored bits are never modified;
//! * **inserts append**: flat per-head slices are copied onto the arena tail;
//!   buffers warm up to the policy budget and then stop growing;
//! * **evictions splice in place** (order-preserving `copy_within`), so the
//!   entry iteration order — and therefore the floating-point accumulation
//!   order of attention — is the same as the historical per-token-`Vec`
//!   storage produced.
//!
//! There is one way to read a cache: `for_each_entry`.  What attention
//! computes from those reads is pinned by golden fixtures outside the code
//! (`tests/integration_decode_alloc.rs`, `tests/integration_golden.rs`).
//!
//! The trait is deliberately payload-centric: the attention code does not
//! care *why* a token survived, only what is stored for it.  Eq. 1 and Eq. 2
//! are invariant to the relative order of KV pairs (§2.2), so entries may be
//! visited in any order — a property the proptest suite checks explicitly.

pub use crate::aerp::{FullKvCache, KvStore};
pub use crate::budget::CacheBudget;
pub use crate::policy::CachePolicy;
use std::cell::{OnceCell, RefCell};
use std::cmp::Ordering;

/// Index of a token within the full (pre-eviction) sequence.
pub type TokenId = usize;

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
    /// The device stores only the layer-input vector `x` (length
    /// `channels`), once per layer for every head that retains the token,
    /// and recomputes the key and value from it; the host also keeps the
    /// head's key and value, so a read that finds `x` intact needs no
    /// recompute.
    Recompute {
        /// Stored input vector for the token.
        x: &'a [f32],
        /// The row's identity within its layer: between two `&mut` accesses
        /// every visit of one stored row, from any head of the layer, carries
        /// the same slot and distinct rows carry distinct slots.  Slots are
        /// small (a slot of the layer's slab of stored rows), so the
        /// attention pass indexes its per-layer row table by them.
        slot: usize,
        /// The head's rotated key, as the token's own forward projected it:
        /// bitwise what a recompute from the intact `x` yields.  Host-only:
        /// neither stored on the device nor billed.
        key: &'a [f32],
        /// The head's value, as the token's own forward projected it.
        /// Host-only, like `key`.
        value: &'a [f32],
    },
}

/// Borrowed view of a single cached token entry for one `(layer, head)`.
///
/// Produced by [`KvCacheBackend::for_each_entry`] and consumed by the fused
/// attention pass without touching the allocator.  Its HST/LST label is
/// computed only when [`high_score`](EntryRef::high_score) asks for it: a
/// policy that ranks by accumulated attention hands out the entry's score
/// with its head's [`MedianThreshold`] for the traversal, so a read that
/// asks for no label selects no median.
#[derive(Debug, Clone, Copy)]
pub struct EntryRef<'a> {
    /// The original sequence index of the token.
    pub token: TokenId,
    /// Stored data, borrowed from the backend.
    pub payload: PayloadRef<'a>,
    rank: Rank<'a>,
}

/// How an entry's HST/LST label is decided.
#[derive(Debug, Clone, Copy)]
enum Rank<'a> {
    /// A label the policy fixes without ranking.
    Fixed(bool),
    /// The entry's accumulated score, ranked against its head's median.
    Scored {
        score: f32,
        threshold: &'a MedianThreshold<'a>,
    },
}

impl<'a> EntryRef<'a> {
    /// An entry whose label the policy fixes without ranking.
    pub fn labelled(token: TokenId, payload: PayloadRef<'a>, high_score: bool) -> Self {
        EntryRef {
            token,
            payload,
            rank: Rank::Fixed(high_score),
        }
    }

    /// An entry with accumulated score `score`, high-score when it reaches
    /// its head's median.
    pub fn scored(
        token: TokenId,
        payload: PayloadRef<'a>,
        score: f32,
        threshold: &'a MedianThreshold<'a>,
    ) -> Self {
        EntryRef {
            token,
            payload,
            rank: Rank::Scored { score, threshold },
        }
    }

    /// Whether the policy currently classifies this token as a high-score
    /// (heavy-hitter) token.  Used by the fault injector to apply the
    /// HST/LST-dependent corruption rates of 2DRP.  The first call in a
    /// traversal of a ranking policy selects the head's median.
    pub fn high_score(&self) -> bool {
        match self.rank {
            Rank::Fixed(high) => high,
            Rank::Scored { score, threshold } => score >= threshold.median(),
        }
    }
}

/// The HST/LST threshold of one head for one
/// [`for_each_entry`](KvCacheBackend::for_each_entry) traversal: the median
/// of the head's accumulated scores (the upper one of an even count, −∞ for
/// none), selected on a reused buffer the first time a label is asked for
/// and kept for the rest of the traversal.
pub struct MedianThreshold<'a> {
    /// Appends the head's accumulated scores to the buffer.
    scores: &'a dyn Fn(&mut Vec<f32>),
    buffer: &'a RefCell<Vec<f32>>,
    median: OnceCell<f32>,
}

impl<'a> MedianThreshold<'a> {
    /// A threshold over the scores `scores` appends, selected on `buffer`.
    pub fn new(scores: &'a dyn Fn(&mut Vec<f32>), buffer: &'a RefCell<Vec<f32>>) -> Self {
        MedianThreshold {
            scores,
            buffer,
            median: OnceCell::new(),
        }
    }

    /// The head's median score, selected on the first call.
    pub(crate) fn median(&self) -> f32 {
        *self.median.get_or_init(|| {
            let mut buffer = self.buffer.borrow_mut();
            buffer.clear();
            (self.scores)(&mut buffer);
            if buffer.is_empty() {
                return f32::NEG_INFINITY;
            }
            let mid = buffer.len() / 2;
            *buffer
                .select_nth_unstable_by(mid, |a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal))
                .1
        })
    }
}

impl std::fmt::Debug for MedianThreshold<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MedianThreshold")
            .field("median", &self.median.get())
            .finish_non_exhaustive()
    }
}

/// Aggregate occupancy statistics reported by a cache backend.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
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
    pub bytes_fp16: usize,
}

impl CacheStats {
    /// Sum of stored entries of both kinds.
    pub(crate) fn total_entries(&self) -> usize {
        self.kv_entries + self.recompute_entries
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
/// 2. one [`for_each_entry`](KvCacheBackend::for_each_entry) per head,
///    visiting borrowed views of the tokens to attend over;
/// 3. per head, [`observe_attention`](KvCacheBackend::observe_attention)
///    with the post-softmax probabilities assigned to the visited entries,
///    so importance-tracking policies (H2O, AERP) can update their scores.
///    It receives one `(token, probability)` pair per entry of the head's
///    last `for_each_entry`, in that order; the store `assert!`s, under
///    every policy, that the tokens agree one by one, and adds the scores
///    by position.
///
/// After pre-filling, [`finish_prefill`](KvCacheBackend::finish_prefill) lets
/// policies apply their prefill retention rule (e.g. keep the top-`N'`
/// tokens).
///
/// [`entry_count`](KvCacheBackend::entry_count) equals the number of entries
/// `for_each_entry` visits.
///
/// Backends are required to be [`Send`]: a serving session owns its backend
/// and the threaded serving front-end (`kelle::parallel`) moves whole
/// sessions between the coordinator and its worker shards.  The store is
/// plain owned data (arenas, dense arrays, counters), so the bound costs
/// nothing; it only rules out `Rc`/thread-local tricks in custom
/// implementations.
///
/// `observe_attention(layer, head, ..)` must confine its effects to state
/// associated with that `(layer, head)` pair — it must not evict, reorder or
/// rescore entries of *other* heads (evictions belong in
/// [`insert`](KvCacheBackend::insert) /
/// [`finish_prefill`](KvCacheBackend::finish_prefill)): nothing
/// `for_each_entry(layer, h′)` visits for `h′ ≠ head` may change.  This is
/// what lets the attention pass read every head of a layer before it
/// reports any of them (step 2 before step 3), and it keeps what a head
/// reads within a step independent of the order heads are visited in.  The
/// store satisfies this under every policy — an observe adds into the
/// observed head's own score array and moves its own count of observed
/// entries — and a property test holds it to that.  A ranking policy keeps no
/// label between calls: each traversal hands its entries their scores and a
/// [`MedianThreshold`] that selects the head's median only if a label is
/// asked for.
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

    /// Reports the post-softmax attention probabilities assigned to cached
    /// tokens during the current step: one `(token, probability)` pair per
    /// entry of the head's last
    /// [`for_each_entry`](KvCacheBackend::for_each_entry), in that order.
    fn observe_attention(&mut self, layer: usize, head: usize, scores: &[(TokenId, f32)]);

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
    /// statistics and eviction decisions.  The store derives `Clone` (arenas,
    /// dense arrays and counters copy trivially).  The default
    /// panics, so ephemeral adapters that can never be checkpointed — e.g.
    /// the borrowing `SegmentRecorder` — need not (and cannot) implement it.
    fn clone_box(&self) -> Box<dyn KvCacheBackend> {
        unimplemented!(
            "KV cache backend `{}` does not support checkpoint cloning",
            self.name()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv(token: usize) -> (Vec<f32>, Vec<f32>) {
        (vec![token as f32; 4], vec![-(token as f32); 4])
    }

    /// Two-head insert helper using the flat head-major layout.
    fn insert2(cache: &mut dyn KvCacheBackend, token: usize) {
        let (k, v) = kv(token);
        let keys: Vec<f32> = k.iter().chain(k.iter()).copied().collect();
        let values: Vec<f32> = v.iter().chain(v.iter()).copied().collect();
        cache.insert(0, token, &[0.0; 8], &keys, &values, 4);
    }

    #[test]
    fn full_cache_retains_everything() {
        let mut cache = CachePolicy::Full.build(CacheBudget::new(usize::MAX), 2);
        for t in 0..10 {
            insert2(&mut *cache, t);
        }
        assert_eq!(cache.entry_count(0, 0), 10);
        assert_eq!(cache.entry_count(0, 1), 10);
        assert_eq!(cache.entry_count(1, 0), 0);
        assert_eq!(cache.stats().kv_entries, 20);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn full_cache_stats_bytes() {
        let mut cache = CachePolicy::Full.build(CacheBudget::new(1), 1);
        let (k, v) = kv(0);
        cache.insert(0, 0, &[0.0; 8], &k, &v, 4);
        // One head, key+value of 4 elements each at 2 bytes.
        assert_eq!(cache.stats().bytes_fp16, 16);
    }

    #[test]
    fn high_score_labels_follow_attention() {
        let mut cache = CachePolicy::Full.build(CacheBudget::new(1), 1);
        let insert = |cache: &mut dyn KvCacheBackend, t: usize| {
            let (k, v) = kv(t);
            cache.insert(0, t, &[0.0; 8], &k, &v, 4);
        };
        for t in 0..4 {
            insert(cache.as_mut(), t);
        }
        // Token 2 receives most of the attention mass.
        cache.observe_attention(0, 0, &[(0, 0.05), (1, 0.05), (2, 0.8), (3, 0.1)]);
        // Token 4 arrives after the observe: no observe has named it yet.
        insert(cache.as_mut(), 4);
        let mut high_score = Vec::new();
        cache.for_each_entry(0, 0, &mut |e| high_score.push((e.token, e.high_score())));
        // The observed four split at their median, 0.1; the unobserved
        // newest is high and stays out of the median, which would otherwise
        // fall to 0.05 and lift tokens 0 and 1.
        assert_eq!(
            high_score,
            [(0, false), (1, false), (2, true), (3, true), (4, true)]
        );
    }

    #[test]
    fn borrowed_views_match_materialized_entries() {
        let mut cache = CachePolicy::Full.build(CacheBudget::new(1), 2);
        // Head `h` of token `t` stores key `10t + h` and value `−(10t + h)`,
        // so a view that borrowed the wrong head's slice or the wrong token's
        // stride shows.
        for t in 0..6 {
            let keys: Vec<f32> = (0..8).map(|i| (10 * t + i / 4) as f32).collect();
            let values: Vec<f32> = keys.iter().map(|k| -k).collect();
            cache.insert(0, t, &[0.0; 8], &keys, &values, 4);
        }
        let scores = [(0, 0.7), (1, 0.0), (2, 0.0), (3, 0.1), (4, 0.0), (5, 0.0)];
        cache.observe_attention(0, 0, &scores);
        for head in 0..2 {
            let mut entries = Vec::new();
            cache.for_each_entry(0, head, &mut |e| {
                let PayloadRef::Kv { key, value } = e.payload else {
                    unreachable!("the full cache stores KV")
                };
                entries.push((e.token, key.to_vec(), value.to_vec()));
            });
            let expected: Vec<_> = (0..6)
                .map(|t| {
                    let k = (10 * t + head) as f32;
                    (t, vec![k; 4], vec![-k; 4])
                })
                .collect();
            assert_eq!(entries, expected, "head {head}");
        }
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
