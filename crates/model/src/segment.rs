//! Shared prefix segments: recorded, replayable KV snapshots of one prompt
//! prefix, the storage unit of cross-session prefix sharing.
//!
//! A backend's state after pre-filling a prefix is a deterministic function
//! of the *call sequence* it observed: the `insert`s (with the model's KV
//! projections) interleaved with the `observe_attention` score reports of
//! each step.  [`SegmentRecorder`] wraps a live backend during a one-time
//! publication pre-fill and records exactly that sequence — the raw per-head
//! keys/values into per-`(layer, head)` arenas, the layer-input vectors, and
//! every score report — together with the post-prefix logits and the fault
//! injector's RNG snapshot.  The frozen result is a [`SharedSegment`].
//!
//! A later session whose prompt starts with the published prefix *replays*
//! the segment ([`SharedSegment::replay_into`]) instead of running the
//! transformer over those tokens: the replayed call sequence reproduces the
//! backend state **bit-identically** (for every policy — score-tracking,
//! evicting, quantizing), the adopted logits and fault snapshot restore the
//! generation cursor, and the expensive part — the matrix work of the prefix
//! forward passes — is skipped entirely.
//!
//! Replay pairs with [`KvCacheBackend::attach_shared_prefix`]: backends that
//! store raw KV in insertion order open their arenas over the segment's
//! refcounted grid first, so the replayed inserts adopt the shared entries
//! zero-copy (see the copy-on-evict notes in [`crate::arena`]).

use crate::arena::{ArenaGrid, SharedKv};
use crate::cache::{CacheStats, EntryRef, KvCacheBackend, PayloadRef, TokenId};
use crate::fault::ProbabilisticFaults;
use std::sync::Arc;

/// One recorded backend call of the prefix pre-fill.
#[derive(Debug, Clone, Copy)]
enum ReplayEvent {
    /// An `insert` call; the payload lives in the segment's KV grid and
    /// input-vector store at `index`.
    Insert { layer: u32, token: u32, index: u32 },
    /// An `observe_attention` call; the scores live in the segment's flat
    /// score pool at `start..start + len`.
    Observe {
        layer: u32,
        head: u32,
        start: u32,
        len: u32,
    },
}

/// An immutable, refcounted snapshot of one pre-filled prompt prefix.
///
/// Produced by [`SegmentRecorder::finish`], published into the prefix store
/// behind an `Arc`, and consumed by cache-hit sessions via
/// [`replay_into`](SharedSegment::replay_into).  See the [module
/// docs](self) for the hit/miss/publish lifecycle.
#[derive(Debug)]
pub struct SharedSegment {
    /// Prefix length in tokens.
    len: usize,
    heads: usize,
    head_dim: usize,
    channels: usize,
    /// Raw per-`(layer, head)` KV of every prefix token, in insertion order —
    /// the refcounted base that zero-copy sessions alias.
    kv: Arc<ArenaGrid>,
    /// Per-layer input vectors, token-major (`index * channels`).
    xs: Vec<Vec<f32>>,
    /// The recorded call sequence.
    events: Vec<ReplayEvent>,
    /// Flat pool backing the `Observe` events.
    scores: Vec<(TokenId, f32)>,
    /// Logits of the last prefix token (the generation cursor).
    logits: Vec<f32>,
    /// Fault-injector snapshot taken right after the prefix pre-fill.
    faults: ProbabilisticFaults,
}

impl SharedSegment {
    /// Prefix length in tokens.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the segment is empty (never true for published segments).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Decoder layers covered.
    pub fn layers(&self) -> usize {
        self.xs.len()
    }

    /// The post-prefix logits (restored into the session's generation state
    /// on a hit).
    pub fn logits(&self) -> &[f32] {
        &self.logits
    }

    /// A fresh copy of the post-prefix fault-injector state (restored into
    /// the session on a hit, so the fault RNG stream continues exactly where
    /// a cold session's would be).
    pub fn faults_snapshot(&self) -> ProbabilisticFaults {
        self.faults.clone()
    }

    /// The refcounted KV base for zero-copy attachment
    /// ([`KvCacheBackend::attach_shared_prefix`]).
    pub fn shared_kv(&self) -> SharedKv {
        SharedKv {
            grid: Arc::clone(&self.kv),
            layers: self.layers(),
            heads: self.heads,
            head_dim: self.head_dim,
            tokens: self.len,
        }
    }

    /// Logical FP16 footprint of the shared KV data (the bytes a ledger
    /// charges once, however many sessions attach).
    pub fn bytes_fp16(&self) -> usize {
        self.kv.bytes_fp16()
    }

    /// Replays the recorded insert/observe sequence into a fresh cache,
    /// reproducing the exact backend state a cold pre-fill of the prefix
    /// would have built — without any model compute.  Call
    /// [`attach_shared_prefix`](KvCacheBackend::attach_shared_prefix) with
    /// [`shared_kv`](SharedSegment::shared_kv) first if the backend should
    /// adopt the storage zero-copy.
    ///
    /// The caller is responsible for *not* signalling
    /// [`finish_prefill`](KvCacheBackend::finish_prefill) until the rest of
    /// the session's first prompt has been pre-filled (matching the cold
    /// call sequence).
    pub fn replay_into(&self, cache: &mut dyn KvCacheBackend) {
        let channels = self.channels;
        let hd = self.head_dim;
        let mut kbuf = vec![0.0f32; channels];
        let mut vbuf = vec![0.0f32; channels];
        for event in &self.events {
            match *event {
                ReplayEvent::Insert {
                    layer,
                    token,
                    index,
                } => {
                    let layer = layer as usize;
                    let index = index as usize;
                    for h in 0..self.heads {
                        let arena = self
                            .kv
                            .get(layer, h)
                            .expect("recorded (layer, head) exists");
                        kbuf[h * hd..(h + 1) * hd].copy_from_slice(arena.key(index));
                        vbuf[h * hd..(h + 1) * hd].copy_from_slice(arena.value(index));
                    }
                    let x = &self.xs[layer][index * channels..(index + 1) * channels];
                    cache.insert(layer, token as usize, x, &kbuf, &vbuf, hd);
                }
                ReplayEvent::Observe {
                    layer,
                    head,
                    start,
                    len,
                } => {
                    let scores = &self.scores[start as usize..(start + len) as usize];
                    cache.observe_attention(layer as usize, head as usize, scores);
                }
            }
        }
    }

    /// Convenience: [`attach_shared_prefix`](KvCacheBackend::attach_shared_prefix)
    /// followed by [`replay_into`](SharedSegment::replay_into).
    pub fn attach_and_replay(&self, cache: &mut dyn KvCacheBackend) {
        cache.attach_shared_prefix(&self.shared_kv());
        self.replay_into(cache);
    }
}

/// A frozen view of the recorder's state at one intermediate prefix
/// boundary, captured by [`SegmentRecorder::mark_boundary`].
///
/// Holds everything a [`SharedSegment`] of the boundary prefix needs: its
/// own copy of the KV grid and input vectors (so shorter prefixes attach a
/// grid of exactly their own length), the call-sequence cut points, and the
/// generation-cursor snapshot (logits + fault RNG) at the boundary.
#[derive(Debug)]
struct BoundarySnapshot {
    len: usize,
    kv: ArenaGrid,
    xs: Vec<Vec<f32>>,
    events_len: usize,
    scores_len: usize,
    logits: Vec<f32>,
    faults: ProbabilisticFaults,
}

/// A pass-through [`KvCacheBackend`] that records the call sequence of a
/// publication pre-fill while forwarding everything to the wrapped backend.
///
/// Wrap the publishing session's cache, run the prefix through
/// `prefill_extend`, then [`finish`](SegmentRecorder::finish) with the
/// post-prefix logits and fault snapshot to obtain the [`SharedSegment`].
///
/// For **nested prefix hierarchies** (system prompt → tool preamble → user
/// history), call [`mark_boundary`](SegmentRecorder::mark_boundary) after
/// pre-filling each nesting level, then
/// [`finish_hierarchy`](SegmentRecorder::finish_hierarchy) to obtain one
/// segment per boundary from the single recording pass — the transformer
/// runs over the longest prefix exactly once.
#[derive(Debug)]
pub struct SegmentRecorder<'a> {
    inner: &'a mut dyn KvCacheBackend,
    heads: usize,
    head_dim: usize,
    channels: usize,
    kv: ArenaGrid,
    xs: Vec<Vec<f32>>,
    /// Inserts seen per layer (the per-layer payload index).
    counts: Vec<u32>,
    events: Vec<ReplayEvent>,
    scores: Vec<(TokenId, f32)>,
    /// Intermediate boundaries marked during the recording pass.
    boundaries: Vec<BoundarySnapshot>,
}

impl<'a> SegmentRecorder<'a> {
    /// Wraps a backend for recording.
    pub fn new(inner: &'a mut dyn KvCacheBackend) -> Self {
        SegmentRecorder {
            inner,
            heads: 0,
            head_dim: 0,
            channels: 0,
            kv: ArenaGrid::new(),
            xs: Vec::new(),
            counts: Vec::new(),
            events: Vec::new(),
            scores: Vec::new(),
            boundaries: Vec::new(),
        }
    }

    /// Number of prefix tokens recorded so far (layer-0 inserts).
    pub fn recorded_tokens(&self) -> usize {
        self.counts.first().map_or(0, |&c| c as usize)
    }

    /// Marks the current recording position as an intermediate prefix
    /// boundary of a nested hierarchy.
    ///
    /// `logits` are the logits of the last token pre-filled so far and
    /// `faults` the fault injector's state at this point — exactly what a
    /// cold session's cursor would hold after pre-filling only this much.
    /// The KV grid and input vectors are snapshotted (copied) so the
    /// boundary segment attaches a grid of exactly its own length.
    ///
    /// # Panics
    ///
    /// Panics if nothing was recorded yet, or if the boundary would not be
    /// strictly longer than the previous one.
    pub fn mark_boundary(&mut self, logits: &[f32], faults: ProbabilisticFaults) {
        let len = self.recorded_tokens();
        assert!(len > 0, "cannot publish an empty prefix segment");
        if let Some(prev) = self.boundaries.last() {
            assert!(
                len > prev.len,
                "hierarchy boundaries must be strictly increasing"
            );
        }
        self.boundaries.push(BoundarySnapshot {
            len,
            kv: self.kv.clone(),
            xs: self.xs.clone(),
            events_len: self.events.len(),
            scores_len: self.scores.len(),
            logits: logits.to_vec(),
            faults,
        });
    }

    /// Number of boundaries marked so far.
    pub fn marked_boundaries(&self) -> usize {
        self.boundaries.len()
    }

    /// Freezes the recording into one publishable segment **per marked
    /// boundary** (innermost first), the multi-level counterpart of
    /// [`finish`](SegmentRecorder::finish).
    ///
    /// Each returned segment replays bit-identically to a cold pre-fill of
    /// its own prefix: the call sequence is truncated at the boundary's cut
    /// point and the cursor state (logits + faults) is the boundary's own
    /// snapshot.  The caller marks the final (longest) boundary too — after
    /// the last chunk, before calling this.
    ///
    /// # Panics
    ///
    /// Panics if no boundary was marked.
    pub fn finish_hierarchy(self) -> Vec<SharedSegment> {
        assert!(
            !self.boundaries.is_empty(),
            "cannot publish an empty prefix hierarchy"
        );
        let SegmentRecorder {
            heads,
            head_dim,
            channels,
            events,
            scores,
            boundaries,
            ..
        } = self;
        boundaries
            .into_iter()
            .map(|b| SharedSegment {
                len: b.len,
                heads,
                head_dim,
                channels,
                kv: Arc::new(b.kv),
                xs: b.xs,
                events: events[..b.events_len].to_vec(),
                scores: scores[..b.scores_len].to_vec(),
                logits: b.logits,
                faults: b.faults,
            })
            .collect()
    }

    /// Freezes the recording into one publishable segment of everything
    /// recorded: the one-boundary case of
    /// [`finish_hierarchy`](SegmentRecorder::finish_hierarchy).
    ///
    /// `logits` are the last prefix token's logits and `faults` the fault
    /// injector's state right after the prefix pre-fill (both captured by
    /// the publishing session).
    ///
    /// # Panics
    ///
    /// Panics if nothing was recorded.
    pub fn finish(mut self, logits: &[f32], faults: ProbabilisticFaults) -> SharedSegment {
        self.mark_boundary(logits, faults);
        self.finish_hierarchy()
            .pop()
            .expect("the boundary just marked")
    }
}

impl KvCacheBackend for SegmentRecorder<'_> {
    fn insert(
        &mut self,
        layer: usize,
        token: TokenId,
        x: &[f32],
        keys: &[f32],
        values: &[f32],
        head_dim: usize,
    ) {
        if self.channels == 0 {
            self.head_dim = head_dim;
            self.heads = keys.len() / head_dim;
            self.channels = x.len();
        }
        debug_assert_eq!(head_dim, self.head_dim, "stride is uniform across layers");
        if layer >= self.xs.len() {
            self.xs.resize_with(layer + 1, Vec::new);
            self.counts.resize(layer + 1, 0);
        }
        let index = self.counts[layer];
        self.counts[layer] += 1;
        self.xs[layer].extend_from_slice(x);
        for (head, (k, v)) in keys
            .chunks_exact(head_dim)
            .zip(values.chunks_exact(head_dim))
            .enumerate()
        {
            self.kv
                .get_or_create(layer, head, head_dim)
                .push(token, k, v);
        }
        self.events.push(ReplayEvent::Insert {
            layer: layer as u32,
            token: token as u32,
            index,
        });
        self.inner.insert(layer, token, x, keys, values, head_dim);
    }

    fn for_each_entry(
        &self,
        layer: usize,
        head: usize,
        visit: &mut dyn for<'e> FnMut(EntryRef<'e>),
    ) {
        self.inner.for_each_entry(layer, head, visit);
    }

    fn for_each_payload(
        &self,
        layer: usize,
        head: usize,
        visit: &mut dyn for<'e> FnMut(PayloadRef<'e>),
    ) {
        self.inner.for_each_payload(layer, head, visit);
    }

    fn entry_count(&self, layer: usize, head: usize) -> usize {
        self.inner.entry_count(layer, head)
    }

    fn observe_attention(&mut self, layer: usize, head: usize, scores: &[(TokenId, f32)]) {
        self.events.push(ReplayEvent::Observe {
            layer: layer as u32,
            head: head as u32,
            start: self.scores.len() as u32,
            len: scores.len() as u32,
        });
        self.scores.extend_from_slice(scores);
        self.inner.observe_attention(layer, head, scores);
    }

    fn finish_prefill(&mut self, context_len: usize) {
        // Publication records through `prefill_extend`, which never finishes
        // pre-fill; forward defensively so a recorder misused as a plain
        // backend still behaves.
        self.inner.finish_prefill(context_len);
    }

    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::FullKvCache;
    use crate::fault::{BitFlipRates, FaultInjector};

    fn faults() -> ProbabilisticFaults {
        ProbabilisticFaults::new(BitFlipRates::zero(), 7)
    }

    /// Every entry of `(layer, head)`: token, high-score label, key, value.
    fn visited(
        cache: &FullKvCache,
        layer: usize,
        head: usize,
    ) -> Vec<(TokenId, bool, Vec<f32>, Vec<f32>)> {
        let mut out = Vec::new();
        cache.for_each_entry(layer, head, &mut |e| {
            let PayloadRef::Kv { key, value } = e.payload else {
                unreachable!("the full cache stores KV")
            };
            out.push((e.token, e.high_score, key.to_vec(), value.to_vec()));
        });
        out
    }

    /// Drives a tiny synthetic "pre-fill" through a recorder: 2 layers,
    /// 2 heads, head_dim 2 (channels 4).
    fn record(inner: &mut dyn KvCacheBackend, tokens: usize) -> SharedSegment {
        let mut recorder = SegmentRecorder::new(inner);
        for t in 0..tokens {
            for layer in 0..2 {
                let x = [t as f32, layer as f32, 1.0, -1.0];
                let keys = [t as f32; 4];
                let values = [-(t as f32); 4];
                recorder.insert(layer, t, &x, &keys, &values, 2);
                for head in 0..2 {
                    let scores: Vec<(TokenId, f32)> =
                        (0..=t).map(|s| (s, 1.0 / (t + 1) as f32)).collect();
                    recorder.observe_attention(layer, head, &scores);
                }
            }
        }
        assert_eq!(recorder.recorded_tokens(), tokens);
        recorder.finish(&[0.5, 0.25], faults())
    }

    #[test]
    fn replay_reproduces_recorded_backend_state() {
        let mut original = FullKvCache::new();
        let segment = record(&mut original, 3);
        assert_eq!(segment.len(), 3);
        assert_eq!(segment.layers(), 2);
        assert!(segment.bytes_fp16() > 0);

        let mut replayed = FullKvCache::new();
        segment.replay_into(&mut replayed);
        for layer in 0..2 {
            for head in 0..2 {
                assert_eq!(
                    visited(&original, layer, head),
                    visited(&replayed, layer, head),
                    "layer {layer} head {head}"
                );
            }
        }
        let (a, b) = (original.stats(), replayed.stats());
        assert_eq!(a.kv_entries, b.kv_entries);
        assert_eq!(a.insertions, b.insertions);
    }

    #[test]
    fn attach_and_replay_adopts_zero_copy() {
        let mut original = FullKvCache::new();
        let segment = record(&mut original, 4);
        let mut hit = FullKvCache::new();
        segment.attach_and_replay(&mut hit);
        let stats = hit.stats();
        assert_eq!(stats.shared_bytes, segment.bytes_fp16());
        assert_eq!(stats.private_bytes, 0);
        assert_eq!(stats.bytes_fp16, stats.shared_bytes + stats.private_bytes);
        // Entries are served straight out of the shared grid.
        assert_eq!(visited(&hit, 0, 0), visited(&original, 0, 0));
    }

    #[test]
    fn snapshot_carries_cursor_state() {
        let mut inner = FullKvCache::new();
        let segment = record(&mut inner, 2);
        assert_eq!(segment.logits(), &[0.5, 0.25]);
        let snap = segment.faults_snapshot();
        assert_eq!(snap.stats().words_examined, 0);
        assert_eq!(segment.shared_kv().tokens, 2);
        assert_eq!(segment.shared_kv().heads, 2);
    }

    #[test]
    #[should_panic(expected = "empty prefix segment")]
    fn empty_recording_cannot_publish() {
        let mut inner = FullKvCache::new();
        let recorder = SegmentRecorder::new(&mut inner);
        recorder.finish(&[0.0], faults());
    }

    /// Same synthetic pre-fill as `record`, but marking a boundary after
    /// each of the given prefix lengths (the last must equal `tokens`).
    fn record_hierarchy(
        inner: &mut dyn KvCacheBackend,
        tokens: usize,
        boundaries: &[usize],
    ) -> Vec<SharedSegment> {
        let mut recorder = SegmentRecorder::new(inner);
        let mut next = 0;
        for t in 0..tokens {
            for layer in 0..2 {
                let x = [t as f32, layer as f32, 1.0, -1.0];
                let keys = [t as f32; 4];
                let values = [-(t as f32); 4];
                recorder.insert(layer, t, &x, &keys, &values, 2);
                for head in 0..2 {
                    let scores: Vec<(TokenId, f32)> =
                        (0..=t).map(|s| (s, 1.0 / (t + 1) as f32)).collect();
                    recorder.observe_attention(layer, head, &scores);
                }
            }
            if next < boundaries.len() && boundaries[next] == t + 1 {
                recorder.mark_boundary(&[t as f32, 0.5], faults());
                next += 1;
            }
        }
        recorder.finish_hierarchy()
    }

    #[test]
    fn one_pass_publishes_every_boundary() {
        let mut inner = FullKvCache::new();
        let segments = record_hierarchy(&mut inner, 4, &[1, 2, 4]);
        assert_eq!(segments.len(), 3);
        assert_eq!(
            segments.iter().map(SharedSegment::len).collect::<Vec<_>>(),
            vec![1, 2, 4]
        );

        // Each boundary segment replays exactly the state a dedicated
        // recording of just that prefix would have produced.
        for segment in &segments {
            let mut dedicated_inner = FullKvCache::new();
            let dedicated = record(&mut dedicated_inner, segment.len());
            let mut a = FullKvCache::new();
            let mut b = FullKvCache::new();
            segment.replay_into(&mut a);
            dedicated.replay_into(&mut b);
            for layer in 0..2 {
                for head in 0..2 {
                    assert_eq!(
                        visited(&a, layer, head),
                        visited(&b, layer, head),
                        "len {} layer {layer} head {head}",
                        segment.len()
                    );
                }
            }
            // The boundary cursor is the boundary's own, not the final one.
            assert_eq!(segment.logits(), &[(segment.len() - 1) as f32, 0.5]);
            assert_eq!(segment.shared_kv().tokens, segment.len());
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn duplicate_boundary_rejected() {
        let mut inner = FullKvCache::new();
        let mut recorder = SegmentRecorder::new(&mut inner);
        recorder.insert(0, 0, &[0.0; 4], &[0.0; 4], &[0.0; 4], 2);
        recorder.mark_boundary(&[0.0], faults());
        recorder.mark_boundary(&[0.0], faults());
    }
}
