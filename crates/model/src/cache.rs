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
//! * **reads are borrows**: [`head`](KvCacheBackend::head) hands out a
//!   [`HeadView`] of one head — its tokens, its flat key and value arenas,
//!   under AERP its slots into the layer's input slab, and its HST/LST
//!   [`LabelRule`] — as parallel slices straight into the store, zero
//!   copies, zero allocation; the attention pass copies each stored word an
//!   earlier pass wrote into its scratch, where the fault injector corrupts
//!   it, so the stored bits are never modified, and scores the entries of
//!   its own pass straight from the key arena;
//! * **inserts append**: flat per-head slices are copied onto the arena tail;
//!   buffers warm up to the policy budget and then stop growing;
//! * **evictions splice in place** (order-preserving `copy_within`), so the
//!   entry order — and therefore the floating-point accumulation order of
//!   attention — is the same as the historical per-token-`Vec` storage
//!   produced.
//!
//! There is one read of a cache: `head`.
//! [`for_each_entry`](KvCacheBackend::for_each_entry) is a provided adapter
//! over it that hands out one [`EntryRef`] per entry, for callers outside
//! the attention pass.  What attention computes from those reads is pinned
//! by golden fixtures outside the code (`tests/integration_decode_alloc.rs`,
//! `tests/integration_golden.rs`).
//!
//! The trait is deliberately payload-centric: the attention code does not
//! care *why* a token survived, only what is stored for it.  Eq. 1 and Eq. 2
//! are invariant to the relative order of KV pairs (§2.2), so entries may be
//! read in any order — a property the proptest suite checks explicitly.  A
//! head keeps its entries in insertion order, which is ascending token
//! order, and the attention pass relies on that to split off the entries of
//! its own pass as a suffix.

pub use crate::aerp::{FullKvCache, KvStore};
pub use crate::budget::CacheBudget;
pub use crate::policy::CachePolicy;
use std::cell::OnceCell;
use std::cmp::Ordering;

/// Index of a token within the full (pre-eviction) sequence.
pub type TokenId = usize;

/// Borrowed view of a cached token's stored payload, as the
/// [`for_each_entry`](KvCacheBackend::for_each_entry) adapter hands it out:
/// slices pointing straight into the backing arena (or input slab), valid
/// for the duration of one visit.
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
        /// The row's slot in the layer's slab ([`StoredRows::slots`]).
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

/// Borrowed view of a single cached token entry for one `(layer, head)`,
/// as the [`for_each_entry`](KvCacheBackend::for_each_entry) adapter hands
/// it out.
///
/// Its HST/LST label is computed only when
/// [`high_score`](EntryRef::high_score) asks for it: under a ranking rule
/// the first call in a traversal selects the head's median, so a traversal
/// that asks for no label selects none.
#[derive(Debug, Clone, Copy)]
pub struct EntryRef<'a> {
    /// The original sequence index of the token.
    pub token: TokenId,
    /// Stored data, borrowed from the backend.
    pub payload: PayloadRef<'a>,
    /// The head the entry belongs to, and its index there.
    view: &'a HeadView<'a>,
    index: usize,
    /// The traversal's median, selected at the first label asked for.
    median: &'a OnceCell<f32>,
}

impl EntryRef<'_> {
    /// Whether the policy currently classifies this token as a high-score
    /// (heavy-hitter) token.  Used by the fault injector to apply the
    /// HST/LST-dependent corruption rates of 2DRP.  The first call in a
    /// traversal of a ranking policy selects the head's median.
    pub fn high_score(&self) -> bool {
        self.view.high_score(self.index, |ranked| {
            *self
                .median
                .get_or_init(|| select_median(ranked, &mut Vec::new()))
        })
    }
}

/// One head's retained entries, borrowed from the store as parallel slices
/// for one read: entry `i` is `tokens[i]`, its key and value are the `i`th
/// `head_dim`-long runs of `keys` and `values`, and under AERP its stored
/// input row is `rows`' entry `i`.
///
/// A head holds its entries in insertion order, which is ascending token
/// order, so the entries an open pass computed are a suffix
/// (`tokens.partition_point(|&t| t < pass_start)` splits it off).
#[derive(Debug, Clone, Copy)]
pub struct HeadView<'a> {
    /// The retained tokens, in insertion order.
    pub tokens: &'a [TokenId],
    /// Each entry's key, flat and strided by `head_dim`: what the policy
    /// stores, or under AERP the host's unbilled copy.
    pub keys: &'a [f32],
    /// Each entry's value, laid out like `keys`.
    pub values: &'a [f32],
    /// Under AERP, each entry's stored input row; `None` for a policy that
    /// stores K/V.
    pub rows: Option<StoredRows<'a>>,
    /// How each entry's HST/LST label is decided.
    pub label: LabelRule<'a>,
}

/// AERP's stored input rows of one head's entries: entry `i`'s row `x`
/// (`width` floats) sits in slot `slots[i]` of the layer's slab.
#[derive(Debug, Clone, Copy)]
pub struct StoredRows<'a> {
    /// Each entry's slot.  Between two `&mut` accesses every head of the
    /// layer names one stored row by the same slot and distinct rows by
    /// distinct slots; slots are small, so the attention pass indexes its
    /// per-layer row table by them.
    pub slots: &'a [usize],
    /// The layer's slab, `width` floats per slot.
    pub slab: &'a [f32],
    /// The length of a row (`channels`).
    pub width: usize,
}

impl<'a> StoredRows<'a> {
    /// The stored row of entry `i`.
    pub fn x(&self, i: usize) -> &'a [f32] {
        let slot = self.slots[i];
        &self.slab[slot * self.width..(slot + 1) * self.width]
    }
}

/// How a head labels its entries HST or LST for 2DRP (§4.2).
#[derive(Debug, Clone, Copy)]
pub enum LabelRule<'a> {
    /// Every entry carries this label.
    Fixed(bool),
    /// The attention sinks, tokens below this one, are high; the rest low.
    Sinks(TokenId),
    /// The first `ranked` entries are high when their accumulated score
    /// (`scores`, parallel to the tokens) reaches the median of the first
    /// `ranked` scores; the entries after them are high.
    Ranked {
        /// Every entry's accumulated score.
        scores: &'a [f32],
        /// How many of the oldest entries are ranked.
        ranked: usize,
    },
}

impl Default for HeadView<'_> {
    /// A head that holds nothing.
    fn default() -> Self {
        HeadView {
            tokens: &[],
            keys: &[],
            values: &[],
            rows: None,
            label: LabelRule::Fixed(true),
        }
    }
}

impl HeadView<'_> {
    /// The number of entries.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the head holds no entry.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// The label of entry `i`.  Under [`LabelRule::Ranked`], `median` is
    /// handed the ranked scores when the entry needs their median, so a
    /// caller that keeps the first answer selects at most once per read.
    pub fn high_score(&self, i: usize, median: impl FnOnce(&[f32]) -> f32) -> bool {
        match self.label {
            LabelRule::Fixed(high) => high,
            LabelRule::Sinks(sinks) => self.tokens[i] < sinks,
            LabelRule::Ranked { scores, ranked } => {
                i >= ranked || scores[i] >= median(&scores[..ranked])
            }
        }
    }
}

/// The median of `scores` — the upper one of an even count, −∞ for none —
/// selected on `buffer`, which is cleared and refilled.
pub(crate) fn select_median(scores: &[f32], buffer: &mut Vec<f32>) -> f32 {
    if scores.is_empty() {
        return f32::NEG_INFINITY;
    }
    buffer.clear();
    buffer.extend_from_slice(scores);
    let mid = buffer.len() / 2;
    *buffer
        .select_nth_unstable_by(mid, |a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal))
        .1
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
/// 2. one [`head`](KvCacheBackend::head) per head, borrowing the head's
///    entries as parallel slices to attend over;
/// 3. per head, [`observe_attention`](KvCacheBackend::observe_attention)
///    with the post-softmax probabilities assigned to those entries, so
///    importance-tracking policies (H2O, AERP) can update their scores.
///    It receives one `(token, probability)` pair per entry of the head's
///    view, in entry order; the store `assert!`s, under every policy, that
///    the tokens agree one by one, and adds the scores by position.
///
/// After pre-filling, [`finish_prefill`](KvCacheBackend::finish_prefill) lets
/// policies apply their prefill retention rule (e.g. keep the top-`N'`
/// tokens).
///
/// [`for_each_entry`](KvCacheBackend::for_each_entry) visits the view's
/// entries one at a time and [`entry_count`](KvCacheBackend::entry_count)
/// counts them; both are provided over `head`.
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
/// `head(layer, h′)` shows for `h′ ≠ head` may change.  This is what lets
/// the attention pass read every head of a layer before it reports any of
/// them (step 2 before step 3), and it keeps what a head reads within a
/// step independent of the order heads are visited in.  The store satisfies
/// this under every policy — an observe adds into the observed head's own
/// score array and moves its own count of observed entries — and a property
/// test holds it to that.  A ranking policy keeps no label between calls:
/// its view hands out the head's scores under [`LabelRule::Ranked`], and
/// the reader selects the median only if it asks for a label.
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

    /// Borrows the retained entries of `(layer, head)` as parallel slices,
    /// in entry order; an empty view for a layer nothing was inserted into.
    fn head(&self, layer: usize, head: usize) -> HeadView<'_>;

    /// Visits every cached entry of `(layer, head)` in entry order, handing
    /// the visitor borrowed [`EntryRef`] views: an adapter over
    /// [`head`](KvCacheBackend::head) for callers that want one entry at a
    /// time.
    fn for_each_entry(
        &self,
        layer: usize,
        head: usize,
        visit: &mut dyn for<'e> FnMut(EntryRef<'e>),
    ) {
        let view = self.head(layer, head);
        let Some(head_dim) = view.keys.len().checked_div(view.len()) else {
            return;
        };
        let median = OnceCell::new();
        for (index, &token) in view.tokens.iter().enumerate() {
            let (key, value) = (
                &view.keys[index * head_dim..(index + 1) * head_dim],
                &view.values[index * head_dim..(index + 1) * head_dim],
            );
            let payload = match view.rows {
                Some(rows) => PayloadRef::Recompute {
                    x: rows.x(index),
                    slot: rows.slots[index],
                    key,
                    value,
                },
                None => PayloadRef::Kv { key, value },
            };
            visit(EntryRef {
                token,
                payload,
                view: &view,
                index,
                median: &median,
            });
        }
    }

    /// Number of cached entries for `(layer, head)`.
    fn entry_count(&self, layer: usize, head: usize) -> usize {
        self.head(layer, head).len()
    }

    /// Reports the post-softmax attention probabilities assigned to cached
    /// tokens during the current step: one `(token, probability)` pair per
    /// entry of the head's view ([`head`](KvCacheBackend::head), or what
    /// [`for_each_entry`](KvCacheBackend::for_each_entry) visits), in entry
    /// order.
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
