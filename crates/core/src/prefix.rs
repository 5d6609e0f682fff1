//! Cross-session prefix KV sharing: the radix-indexed shared-segment store.
//!
//! Edge chatbots serve many concurrent sessions that overwhelmingly share a
//! common system prompt.  Without sharing, that prompt's KV is recomputed
//! *and stored* once per session — pure waste on a device whose whole design
//! problem is that on-chip KV capacity is scarce.  This module is the fix: a
//! token-level **radix-tree prefix index** mapping published token prefixes
//! to refcounted [`SharedSegment`]s (recorded, replayable pre-fills — see
//! `kelle_model::segment`), plus the [`PrefixStore`] the engine consults on
//! every session's first pre-fill.  A hit skips the prefix's compute; its
//! storage is deduplicated in the capacity ledger's shared pool, which
//! charges a segment once however many sessions replay it.
//!
//! # Lifecycle
//!
//! A segment enters the store only when someone publishes it, and it stays
//! there: no prefill records on its own and the store never drops an entry,
//! so the caller decides what it holds.  That keeps the capacity ledger
//! honest: the scheduler sizes an admission's shared-pool charge from the
//! same store entry the session then replays, so the shared pool holds
//! exactly the segments sessions replay.
//!
//! ```text
//!   publish ─────────────────────────────────────────────────────────────
//!     KelleEngine::publish_prefix(tokens)          (one boundary)
//!     KelleEngine::publish_prefix_hierarchy(tokens, boundaries)
//!         │
//!         ▼
//!     one cold pre-fill of a fresh default session through a
//!     SegmentRecorder, a boundary marked at the end of every level
//!         │   · insert/observe call sequence, with each
//!         │     insert's x/keys/values rows           (one log, shared by
//!         │                                            every boundary)
//!         │   · per-boundary logits (the cursor snapshot)
//!         ▼
//!     PrefixStore::publish → one radix entry per boundary under the
//!     engine's PrefixKey (policy, clamped budget, seed)
//!
//!   hit ─────────────────────────────────────────────────────────────────
//!     Session::prefill(first prompt)
//!         │  radix longest-match under the session's PrefixKey
//!         ▼
//!     SharedSegment::attach_and_replay
//!         │   · the recorded calls, replayed into the session's own
//!         │     arenas ⇒ bit-identical backend state
//!         │   · logits ⇒ bit-identical decode stream
//!         ▼
//!     prefill continues over the unmatched suffix only
//!     (the prefix's transformer compute is *skipped*)
//!
//!   miss ────────────────────────────────────────────────────────────────
//!     plain cold pre-fill; nothing is recorded
//! ```
//!
//! # Equivalence guarantee
//!
//! A cache-hit session produces **bit-identical token streams, probability
//! distributions and fault statistics** to a cold session serving the same
//! prompt under the same configuration.  This holds because (a) a backend's
//! state is a deterministic function of its insert/observe call sequence,
//! which the replay reproduces verbatim; (b) a row's failing cells are keyed
//! by the seed and its position, so a hit reads them as a cold session; (c)
//! sharing is only offered under an exactly-matching [`PrefixKey`] —
//! the integration and property tests assert this for all five policies.
//!
//! # Complexity
//!
//! `RadixPrefixIndex::longest_match` walks compressed edges and compares
//! at most one token per matched position: **O(matched prefix length)**,
//! independent of how many prefixes are published (pinned by a unit test
//! that counts its comparisons against 1 000 published prefixes, both
//! fanning out at the first token and sharing one deep spine).

use kelle_model::{CacheBudget, CachePolicy, FastHashMap, SharedSegment};
use std::sync::Arc;

/// The shortest prefix worth publishing: shorter boundaries are skipped, so
/// the store never fills with trivial one-token entries.
pub(crate) const MIN_PREFIX_TOKENS: usize = 4;

/// Configuration of engine-level prefix sharing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefixSharingConfig {
    /// Master switch.  Disabled by default: sharing never changes token
    /// streams, but it does change capacity accounting and store state, so
    /// it is opt-in.
    pub(crate) enabled: bool,
}

impl PrefixSharingConfig {
    /// Sharing enabled: segments enter the store through
    /// [`publish_prefix`](crate::KelleEngine::publish_prefix) and
    /// [`publish_prefix_hierarchy`](crate::KelleEngine::publish_prefix_hierarchy).
    pub fn enabled() -> Self {
        PrefixSharingConfig { enabled: true }
    }
}

/// The configuration fingerprint a published segment is only valid for.
///
/// A segment snapshots policy state, and the fault seed keys every stored
/// row's cells, so a hit is only bit-equivalent for sessions running the
/// *exact* same effective
/// policy, budget and fault seed — even under a refresh policy that injects
/// no faults, the seed is part of the key.  (The refresh policy and model
/// are fixed per engine; the store lives on the engine, so they need no key
/// field.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixKey {
    /// Effective cache policy of the session.
    pub policy: CachePolicy,
    /// Effective cache budget.
    pub budget: CacheBudget,
    /// Effective fault seed.
    pub seed: u64,
}

/// One published entry: a segment under its configuration key.
#[derive(Debug, Clone)]
struct PrefixEntry {
    id: u64,
    key: PrefixKey,
    segment: Arc<SharedSegment>,
}

/// A successful prefix lookup.
#[derive(Debug, Clone)]
pub struct PrefixHit {
    /// Matched prefix length in tokens.
    pub(crate) matched: usize,
    /// The segment to attach and replay.
    pub(crate) segment: Arc<SharedSegment>,
}

/// Aggregate statistics of a [`PrefixStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PrefixStoreStats {
    /// Boundaries published.
    pub published: u64,
    /// Tokens covered by published boundaries (sum of prefix lengths).
    pub published_tokens: u64,
    /// Lookups that matched a boundary.
    pub hits: u64,
    /// First-prefill lookups that matched nothing.
    pub misses: u64,
    /// Tokens whose prefill compute was skipped thanks to hits.
    pub hit_tokens: u64,
    /// Surrogate-scale KV bytes of all published segments (each counted
    /// once — the resident cost of the store itself).
    pub resident_bytes: u64,
}

// ---------------------------------------------------------------------------
// Radix index
// ---------------------------------------------------------------------------

/// A compressed (Patricia-style) radix tree over token sequences.
///
/// Each edge carries a multi-token label; values live at the node a
/// published sequence ends on.  `V` is generic so the index can be tested
/// and benchmarked independently of segments.
#[derive(Debug)]
pub(crate) struct RadixPrefixIndex<V> {
    root: RadixNode<V>,
    boundaries: usize,
}

#[derive(Debug)]
struct RadixNode<V> {
    values: Vec<V>,
    children: FastHashMap<usize, RadixEdge<V>>,
}

#[derive(Debug)]
struct RadixEdge<V> {
    label: Vec<usize>,
    node: Box<RadixNode<V>>,
}

impl<V> Default for RadixNode<V> {
    fn default() -> Self {
        RadixNode {
            values: Vec::new(),
            children: FastHashMap::default(),
        }
    }
}

fn common_len(a: &[usize], b: &[usize]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

impl<V> Default for RadixPrefixIndex<V> {
    fn default() -> Self {
        RadixPrefixIndex {
            root: RadixNode::default(),
            boundaries: 0,
        }
    }
}

impl<V> RadixPrefixIndex<V> {
    /// The value list at the exact boundary `seq`, creating the path (and
    /// splitting edges) as needed.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is empty (the empty prefix is not a boundary).
    pub(crate) fn values_at_mut(&mut self, seq: &[usize]) -> &mut Vec<V> {
        assert!(!seq.is_empty(), "cannot index the empty prefix");
        Self::descend_mut(&mut self.root, seq)
    }

    /// Records that a previously empty boundary now holds values (called by
    /// the store after pushing into [`values_at_mut`](Self::values_at_mut)).
    fn note_boundary(&mut self) {
        self.boundaries += 1;
    }

    fn descend_mut<'a>(node: &'a mut RadixNode<V>, seq: &[usize]) -> &'a mut Vec<V> {
        if seq.is_empty() {
            return &mut node.values;
        }
        let first = seq[0];
        // Not the entry API: an early `return` of the vacant-entry borrow
        // would pin `node.children` for `'a` and conflict with the re-borrow
        // after the edge split below.
        #[allow(clippy::map_entry)]
        if !node.children.contains_key(&first) {
            node.children.insert(
                first,
                RadixEdge {
                    label: seq.to_vec(),
                    node: Box::new(RadixNode::default()),
                },
            );
            return &mut node
                .children
                .get_mut(&first)
                .expect("just inserted")
                .node
                .values;
        }
        let edge = node.children.get_mut(&first).expect("checked above");
        let common = common_len(&edge.label, seq);
        if common < edge.label.len() {
            // Split the edge: keep the common part, push the old child one
            // level down under the label remainder.
            let suffix = edge.label.split_off(common);
            let old_child = std::mem::replace(&mut edge.node, Box::new(RadixNode::default()));
            edge.node.children.insert(
                suffix[0],
                RadixEdge {
                    label: suffix,
                    node: old_child,
                },
            );
        }
        let edge = node.children.get_mut(&first).expect("checked above");
        Self::descend_mut(&mut edge.node, &seq[common..])
    }

    /// The deepest published boundary that is a prefix of `seq` and holds a
    /// value accepted by `pred`.  Returns `(matched_len, value)`.
    ///
    /// Cost: O(matched prefix length) token comparisons — never a function
    /// of how many boundaries are published.
    pub(crate) fn longest_match<'a>(
        &'a self,
        seq: &[usize],
        mut pred: impl FnMut(&V) -> bool,
    ) -> Option<(usize, &'a V)> {
        let mut node = &self.root;
        let mut depth = 0usize;
        let mut best: Option<(usize, &V)> = None;
        loop {
            if depth > 0 {
                if let Some(v) = node.values.iter().find(|v| pred(v)) {
                    best = Some((depth, v));
                }
            }
            let Some(edge) = seq.get(depth).and_then(|t| node.children.get(t)) else {
                return best;
            };
            let rest = &seq[depth..];
            if rest.len() < edge.label.len() || common_len(&edge.label, rest) < edge.label.len() {
                // The edge label is not fully contained in `seq`: no deeper
                // boundary can be a prefix of it.
                return best;
            }
            depth += edge.label.len();
            node = &edge.node;
        }
    }
}

// ---------------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------------

/// The engine-owned store of published prefixes (behind the engine's mutex).
/// It holds every entry published into it for its whole life.
#[derive(Debug, Default)]
pub struct PrefixStore {
    index: RadixPrefixIndex<PrefixEntry>,
    next_id: u64,
    stats: PrefixStoreStats,
}

impl PrefixStore {
    /// An empty store.
    pub fn new() -> Self {
        PrefixStore::default()
    }

    /// Store statistics.
    pub(crate) fn stats(&self) -> PrefixStoreStats {
        self.stats
    }

    /// Whether an entry for exactly `tokens` under `key` exists.
    pub(crate) fn contains(&self, tokens: &[usize], key: &PrefixKey) -> bool {
        self.index
            .longest_match(tokens, |e| e.key == *key)
            .is_some_and(|(len, _)| len == tokens.len())
    }

    /// Publishes a segment at the exact boundary `tokens` under `key`.
    /// Returns the entry id, or `None` if an entry for that boundary and key
    /// already exists (first publication wins; segments are immutable).
    pub fn publish(
        &mut self,
        tokens: &[usize],
        key: PrefixKey,
        segment: Arc<SharedSegment>,
    ) -> Option<u64> {
        assert_eq!(
            segment.len(),
            tokens.len(),
            "segment length must match the published boundary"
        );
        let values = self.index.values_at_mut(tokens);
        if values.iter().any(|e| e.key == key) {
            return None;
        }
        let was_empty = values.is_empty();
        let id = self.next_id;
        self.next_id += 1;
        self.stats.published += 1;
        self.stats.published_tokens += tokens.len() as u64;
        self.stats.resident_bytes += segment.bytes_fp16() as u64;
        values.push(PrefixEntry { id, key, segment });
        if was_empty {
            self.index.note_boundary();
        }
        Some(id)
    }

    /// Longest-prefix lookup under `key`, updating hit/miss statistics.
    pub fn lookup(&mut self, tokens: &[usize], key: &PrefixKey) -> Option<PrefixHit> {
        match self.index.longest_match(tokens, |e| e.key == *key) {
            Some((matched, entry)) => {
                self.stats.hits += 1;
                self.stats.hit_tokens += matched as u64;
                Some(PrefixHit {
                    matched,
                    segment: Arc::clone(&entry.segment),
                })
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Like [`lookup`](Self::lookup) but without touching statistics or
    /// handing out the segment: the `(entry id, matched tokens)` of the
    /// longest match.  Used by the batch scheduler to size admission
    /// footprints before the session actually pre-fills.
    pub(crate) fn probe(&self, tokens: &[usize], key: &PrefixKey) -> Option<(u64, usize)> {
        self.index
            .longest_match(tokens, |e| e.key == *key)
            .map(|(matched, entry)| (entry.id, matched))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seed: u64) -> PrefixKey {
        PrefixKey {
            policy: CachePolicy::Full,
            budget: CacheBudget::new(64),
            seed,
        }
    }

    #[test]
    fn radix_inserts_and_longest_matches() {
        let mut index: RadixPrefixIndex<&'static str> = RadixPrefixIndex::default();
        index.values_at_mut(&[1, 2, 3]).push("abc");
        index.values_at_mut(&[1, 2, 3, 4, 5]).push("abcde");
        index.values_at_mut(&[1, 9]).push("az");
        // Longest boundary that prefixes the query wins.
        let (len, v) = index.longest_match(&[1, 2, 3, 4, 5, 6], |_| true).unwrap();
        assert_eq!((len, *v), (5, "abcde"));
        let (len, v) = index.longest_match(&[1, 2, 3, 4, 9], |_| true).unwrap();
        assert_eq!((len, *v), (3, "abc"));
        let (len, v) = index.longest_match(&[1, 9, 9], |_| true).unwrap();
        assert_eq!((len, *v), (2, "az"));
        assert!(index.longest_match(&[2, 2], |_| true).is_none());
        // A query shorter than any boundary matches nothing.
        assert!(index.longest_match(&[1, 2], |_| true).is_none());
    }

    #[test]
    fn radix_edge_splitting_preserves_existing_boundaries() {
        let mut index: RadixPrefixIndex<u32> = RadixPrefixIndex::default();
        index.values_at_mut(&[5, 6, 7, 8]).push(1);
        // Diverges inside the existing edge, forcing a split.
        index.values_at_mut(&[5, 6, 9]).push(2);
        // Boundary in the middle of the (former) edge.
        index.values_at_mut(&[5, 6]).push(3);
        assert_eq!(index.longest_match(&[5, 6, 7, 8], |_| true).unwrap().0, 4);
        assert_eq!(index.longest_match(&[5, 6, 9, 1], |_| true).unwrap().0, 3);
        assert_eq!(index.longest_match(&[5, 6, 1], |_| true).unwrap().0, 2);
    }

    #[test]
    fn radix_predicate_filters_entries() {
        let mut index: RadixPrefixIndex<u64> = RadixPrefixIndex::default();
        index.values_at_mut(&[1, 2]).push(10);
        index.values_at_mut(&[1, 2, 3]).push(20);
        // Only the shorter boundary carries an acceptable value.
        let (len, v) = index.longest_match(&[1, 2, 3], |v| *v == 10).unwrap();
        assert_eq!((len, *v), (2, 10));
        assert!(index.longest_match(&[1, 2, 3], |v| *v == 99).is_none());
    }

    /// Number of token comparisons a `longest_match` of `seq` performs: the
    /// instrumented twin of its walk.
    fn match_cost<V>(index: &RadixPrefixIndex<V>, seq: &[usize]) -> usize {
        let mut node = &index.root;
        let mut depth = 0usize;
        let mut cost = 0usize;
        loop {
            let Some(edge) = seq.get(depth).and_then(|t| node.children.get(t)) else {
                return cost;
            };
            let rest = &seq[depth..];
            let common = common_len(&edge.label, rest);
            cost += common.min(rest.len()).max(1);
            if rest.len() < edge.label.len() || common < edge.label.len() {
                return cost;
            }
            depth += edge.label.len();
            node = &edge.node;
        }
    }

    #[test]
    fn match_cost_is_bounded_by_query_not_store_size() {
        let mut index: RadixPrefixIndex<usize> = RadixPrefixIndex::default();
        // 1000 published prefixes fanning out at the first token.
        for i in 0..1000usize {
            let seq: Vec<usize> = (0..16).map(|p| i * 31 + p).collect();
            index.values_at_mut(&seq).push(i);
        }
        let query: Vec<usize> = (0..16).collect();
        let cost = match_cost(&index, &query);
        // O(matched): bounded by the query length plus one mismatch probe,
        // regardless of the 1000 published boundaries.
        assert!(cost <= query.len() + 1, "cost {cost}");
        // And a long query against a deep store still pays only its own
        // length.
        let mut deep: RadixPrefixIndex<usize> = RadixPrefixIndex::default();
        for i in 0..1000usize {
            let mut seq: Vec<usize> = (0..64).collect();
            seq.push(1000 + i);
            deep.values_at_mut(&seq).push(i);
        }
        let query: Vec<usize> = (0..64).collect();
        assert!(match_cost(&deep, &query) <= query.len() + 1);
    }

    #[test]
    fn store_publishes_once_per_key_and_boundary() {
        let mut store = PrefixStore::new();
        let segment = dummy_segment(3);
        assert!(store
            .publish(&[1, 2, 3], key(7), Arc::clone(&segment))
            .is_some());
        assert!(store
            .publish(&[1, 2, 3], key(7), Arc::clone(&segment))
            .is_none());
        assert!(store
            .publish(&[1, 2, 3], key(8), Arc::clone(&segment))
            .is_some());
        assert_eq!(store.stats().published, 2);
        assert_eq!(store.index.boundaries, 1);
        assert!(store.contains(&[1, 2, 3], &key(7)));
        assert!(!store.contains(&[1, 2], &key(7)));
    }

    #[test]
    fn store_lookup_matches_key_and_counts() {
        let mut store = PrefixStore::new();
        let segment = dummy_segment(2);
        store.publish(&[4, 5], key(1), segment);
        let hit = store.lookup(&[4, 5, 6], &key(1)).unwrap();
        assert_eq!(hit.matched, 2);
        assert!(store.lookup(&[4, 5, 6], &key(2)).is_none());
        assert!(store.lookup(&[9], &key(1)).is_none());
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.hit_tokens), (1, 2, 2));
        // Probe is side-effect free.
        assert!(store.probe(&[4, 5, 6], &key(1)).is_some());
        assert_eq!(store.stats().hits, 1);
    }

    /// A tiny real segment (recorded through the full store) for store
    /// tests: each token observes every entry it reads, itself included.
    pub(crate) fn dummy_segment(tokens: usize) -> Arc<SharedSegment> {
        use kelle_model::fault::{BitFlipRates, ProbabilisticFaults};
        use kelle_model::{KvCacheBackend, SegmentRecorder};
        let mut inner = CachePolicy::Full.build(CacheBudget::new(usize::MAX), 1);
        let mut recorder = SegmentRecorder::new(&mut *inner);
        let mut scores = Vec::new();
        for t in 0..tokens {
            recorder.insert(0, t, &[t as f32; 4], &[t as f32; 4], &[-(t as f32); 4], 4);
            scores.push((t, 1.0));
            recorder.observe_attention(0, 0, &scores);
        }
        Arc::new(recorder.finish(
            &[0.0, 1.0],
            ProbabilisticFaults::new(BitFlipRates::zero(), 1),
        ))
    }
}
