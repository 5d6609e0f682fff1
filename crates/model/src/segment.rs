//! Shared prefix segments: recorded, replayable pre-fills of one prompt
//! prefix, the storage unit of cross-session prefix sharing.
//!
//! A backend's state after pre-filling a prefix is a deterministic function
//! of the *call sequence* it observed: the `insert`s (with the model's KV
//! projections) interleaved with the `observe_attention` score reports of
//! each step.  [`SegmentRecorder`] wraps a live backend during a one-time
//! publication pre-fill and records exactly that sequence — each insert's
//! flat head-major `x`/keys/values rows as they were passed, and every score
//! report — together with the post-prefix logits.  The frozen result is a
//! [`SharedSegment`].
//!
//! A first prompt is one pass, and a pass reads its own rows clean (see
//! "What is read clean" in [`crate::fault`]), so a publication pre-fill
//! reads no cell, and neither does a hit session's prompt pass, which
//! includes the replayed rows.  A row's cells are keyed by its token
//! position, not by the session, so a hit session's later passes read the
//! replayed rows' cells exactly as a cold session of the same seed reads its
//! own: a segment carries no fault state.
//!
//! A later session whose prompt starts with the published prefix *replays*
//! the segment ([`SharedSegment::attach_and_replay`]) into its own, private
//! cache instead of running the transformer over those tokens: the recorded
//! slices are handed back to `insert` unchanged, so the replayed call
//! sequence reproduces the backend state **bit-identically** (for every
//! policy — score-tracking, evicting, quantizing), the adopted logits
//! restore the generation cursor, and the expensive part —
//! the matrix work of the prefix forward passes — is skipped entirely.
//!
//! The same log feeds the hit's reads: the recorded keys and values are the
//! publication pass's own projections of each row, and replay hands them to
//! `insert`, so a stored-input (AERP) store keeps them beside each replayed
//! row and the hit reads the replayed rows without recomputing them.
//!
//! The log's pools are compact: a publication reserves them at their final
//! sizes before it records ([`SegmentRecorder::reserve_prompt`]), recording
//! shrinks them to their lengths, and an observe label's token is kept as a
//! `u32`, as an insert's is, and widened back on replay.
//!
//! The segment's bytes are shared in the *model*, not in host memory: the
//! capacity ledger charges a hit's matched tokens once to its shared pool,
//! however many sessions attach, at the full-scale KV footprint the
//! scheduler sizes admission by — while each session holds its own copy.
//! [`SharedSegment::bytes_fp16`] is the surrogate-scale size of the
//! recording, which the prefix store reports as its resident bytes.

use crate::arena::FP16_BYTES;
use crate::cache::{CacheStats, HeadView, KvCacheBackend, TokenId};
use crate::config::SurrogateDims;
use crate::fault::ProbabilisticFaults;
use std::sync::Arc;

/// One recorded backend call of the prefix pre-fill.  Payloads are consumed
/// in order from the log's flat pools, so events carry no offsets.
#[derive(Debug, Clone, Copy)]
enum ReplayEvent {
    /// An `insert` call; its `x`/keys/values are the next rows of the log's
    /// pools.
    Insert { layer: u32, token: u32 },
    /// An `observe_attention` call; its scores are the next `len` entries of
    /// the log's score pool.
    Observe { layer: u32, head: u32, len: u32 },
}

/// The call sequence of one publication pre-fill.  Every boundary segment of
/// a hierarchy shares one log and replays a prefix of it.
#[derive(Debug, Default)]
struct ReplayLog {
    head_dim: usize,
    /// Length of an insert's `x` row.
    channels: usize,
    /// Length of an insert's flat keys (and values) row: `heads × head_dim`.
    kv_width: usize,
    events: Vec<ReplayEvent>,
    /// Per insert, in order: the `x` row.
    xs: Vec<f32>,
    /// Per insert, in order: the flat head-major keys row.
    keys: Vec<f32>,
    /// Per insert, in order: the flat head-major values row.
    values: Vec<f32>,
    /// Per observe, in order: the reported scores, each label's token
    /// narrowed to `u32` as an insert's is.
    scores: Vec<(u32, f32)>,
}

impl ReplayLog {
    /// Gives back what recording did not use of the pools.
    fn shrink_to_fit(&mut self) {
        self.events.shrink_to_fit();
        self.xs.shrink_to_fit();
        self.keys.shrink_to_fit();
        self.values.shrink_to_fit();
        self.scores.shrink_to_fit();
    }
}

/// A prefix boundary marked during recording: the log lengths at the
/// boundary (its cut point into the [`ReplayLog`]) and the logits a cold
/// session's generation cursor would hold there.
#[derive(Debug)]
struct Boundary {
    /// Prefix length in tokens.
    tokens: usize,
    events: usize,
    inserts: usize,
    /// Logits of the last prefix token (the generation cursor).
    logits: Vec<f32>,
}

/// An immutable, refcounted recording of one pre-filled prompt prefix.
///
/// Produced by [`SegmentRecorder::finish`], published into the prefix store
/// behind an `Arc`, and consumed by cache-hit sessions via
/// [`attach_and_replay`](SharedSegment::attach_and_replay).  The `segment`
/// module's docs give the hit/miss/publish lifecycle.
#[derive(Debug)]
pub struct SharedSegment {
    log: Arc<ReplayLog>,
    boundary: Boundary,
}

impl SharedSegment {
    /// Prefix length in tokens.
    pub fn len(&self) -> usize {
        self.boundary.tokens
    }

    /// Whether the segment is empty (never true for published segments).
    pub fn is_empty(&self) -> bool {
        self.boundary.tokens == 0
    }

    /// The post-prefix logits (restored into the session's generation state
    /// on a hit).
    pub(crate) fn logits(&self) -> &[f32] {
        &self.boundary.logits
    }

    /// Logical FP16 footprint of the prefix's raw KV projections at the
    /// surrogate's scale: `inserts × 2 × kv_width × 2`.
    pub fn bytes_fp16(&self) -> usize {
        self.boundary.inserts * 2 * self.log.kv_width * FP16_BYTES
    }

    /// Replays the recorded insert/observe sequence into a fresh cache,
    /// reproducing the exact backend state a cold pre-fill of the prefix
    /// would have built — without any model compute.
    ///
    /// The caller is responsible for *not* signalling
    /// [`finish_prefill`](KvCacheBackend::finish_prefill) until the rest of
    /// the session's first prompt has been pre-filled (matching the cold
    /// call sequence).
    pub fn attach_and_replay(&self, cache: &mut dyn KvCacheBackend) {
        let log = &*self.log;
        let (c, w) = (log.channels, log.kv_width);
        let (mut row, mut score) = (0, 0);
        let mut labels: Vec<(TokenId, f32)> = Vec::new();
        for event in &log.events[..self.boundary.events] {
            match *event {
                ReplayEvent::Insert { layer, token } => {
                    cache.insert(
                        layer as usize,
                        token as usize,
                        &log.xs[row * c..(row + 1) * c],
                        &log.keys[row * w..(row + 1) * w],
                        &log.values[row * w..(row + 1) * w],
                        log.head_dim,
                    );
                    row += 1;
                }
                ReplayEvent::Observe { layer, head, len } => {
                    let end = score + len as usize;
                    labels.clear();
                    labels.extend(
                        log.scores[score..end]
                            .iter()
                            .map(|&(token, p)| (token as TokenId, p)),
                    );
                    cache.observe_attention(layer as usize, head as usize, &labels);
                    score = end;
                }
            }
        }
    }
}

/// A pass-through [`KvCacheBackend`] that records the call sequence of a
/// publication pre-fill while forwarding everything to the wrapped backend.
///
/// Wrap the publishing session's cache, run the prefix through
/// `prefill_extend`, then [`finish`](SegmentRecorder::finish) with the
/// post-prefix logits to obtain the [`SharedSegment`].
///
/// For **nested prefix hierarchies** (system prompt → tool preamble → user
/// history), call [`mark_boundary`](SegmentRecorder::mark_boundary) after
/// pre-filling each nesting level, then
/// [`finish_hierarchy`](SegmentRecorder::finish_hierarchy) to obtain one
/// segment per boundary from the single recording pass — the transformer
/// runs over the longest prefix exactly once, and every boundary segment
/// replays a prefix of the same log.
#[derive(Debug)]
pub struct SegmentRecorder<'a> {
    inner: &'a mut dyn KvCacheBackend,
    log: ReplayLog,
    /// Layer-0 inserts seen so far (the recorded prefix length).
    tokens: usize,
    /// Boundaries marked during the recording pass.
    boundaries: Vec<Boundary>,
}

impl<'a> SegmentRecorder<'a> {
    /// Wraps a backend for recording.
    pub fn new(inner: &'a mut dyn KvCacheBackend) -> Self {
        SegmentRecorder {
            inner,
            log: ReplayLog::default(),
            tokens: 0,
            boundaries: Vec::new(),
        }
    }

    /// Reserves the log for a fresh pre-fill of `tokens` prompt tokens
    /// through a model of `dims`, so its pools do not grow by doubling: one
    /// insert per token and layer, and per token, layer and head one observe
    /// of every token so far, as a policy that evicts nothing during
    /// pre-fill reports.  A policy that evicts during pre-fill reports fewer
    /// scores; [`finish_hierarchy`](Self::finish_hierarchy) gives the slack
    /// back.
    pub fn reserve_prompt(&mut self, tokens: usize, dims: &SurrogateDims) {
        let inserts = tokens * dims.layers;
        let log = &mut self.log;
        log.events.reserve_exact(inserts * (1 + dims.heads));
        for pool in [&mut log.xs, &mut log.keys, &mut log.values] {
            pool.reserve_exact(inserts * dims.channels);
        }
        log.scores
            .reserve_exact(inserts * dims.heads * (tokens + 1) / 2);
    }

    /// Marks the current recording position as a prefix boundary of a
    /// nested hierarchy.
    ///
    /// `logits` are the logits of the last token pre-filled so far —
    /// exactly what a cold session's cursor would hold after pre-filling
    /// only this much.
    ///
    /// # Panics
    ///
    /// Panics if nothing was recorded yet, or if the boundary would not be
    /// strictly longer than the previous one.
    pub fn mark_boundary(&mut self, logits: &[f32]) {
        let tokens = self.tokens;
        assert!(tokens > 0, "cannot publish an empty prefix segment");
        if let Some(prev) = self.boundaries.last() {
            assert!(
                tokens > prev.tokens,
                "hierarchy boundaries must be strictly increasing"
            );
        }
        self.boundaries.push(Boundary {
            tokens,
            events: self.log.events.len(),
            inserts: self.log.xs.len() / self.log.channels,
            logits: logits.to_vec(),
        });
    }

    /// Freezes the recording into one publishable segment **per marked
    /// boundary** (innermost first), the multi-level counterpart of
    /// [`finish`](SegmentRecorder::finish).
    ///
    /// Each returned segment replays bit-identically to a cold pre-fill of
    /// its own prefix: its replay stops at the boundary's cut point and the
    /// cursor's logits are the boundary's own.  The
    /// caller marks the final (longest) boundary too — after the last
    /// chunk, before calling this.
    ///
    /// # Panics
    ///
    /// Panics if no boundary was marked.
    pub fn finish_hierarchy(self) -> Vec<SharedSegment> {
        assert!(
            !self.boundaries.is_empty(),
            "cannot publish an empty prefix hierarchy"
        );
        let mut log = self.log;
        log.shrink_to_fit();
        let log = Arc::new(log);
        self.boundaries
            .into_iter()
            .map(|boundary| SharedSegment {
                log: Arc::clone(&log),
                boundary,
            })
            .collect()
    }

    /// Freezes the recording into one publishable segment of everything
    /// recorded: the one-boundary case of
    /// [`finish_hierarchy`](SegmentRecorder::finish_hierarchy).
    ///
    /// `logits` are the last prefix token's logits, captured by the
    /// publishing session.  `faults` is read by nothing — a segment carries
    /// no fault state — and goes when the benchmark stops passing it
    /// (ROADMAP item 1).
    ///
    /// # Panics
    ///
    /// Panics if nothing was recorded.
    pub fn finish(mut self, logits: &[f32], faults: ProbabilisticFaults) -> SharedSegment {
        let _ = faults;
        self.mark_boundary(logits);
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
        let log = &mut self.log;
        if log.channels == 0 {
            log.head_dim = head_dim;
            log.channels = x.len();
            log.kv_width = keys.len();
        }
        debug_assert_eq!(head_dim, log.head_dim, "stride is uniform across layers");
        debug_assert_eq!(x.len(), log.channels, "input width is uniform");
        debug_assert_eq!(keys.len(), log.kv_width, "key width is uniform");
        log.xs.extend_from_slice(x);
        log.keys.extend_from_slice(keys);
        log.values.extend_from_slice(values);
        log.events.push(ReplayEvent::Insert {
            layer: layer as u32,
            token: token as u32,
        });
        if layer == 0 {
            self.tokens += 1;
        }
        self.inner.insert(layer, token, x, keys, values, head_dim);
    }

    fn head(&self, layer: usize, head: usize) -> HeadView<'_> {
        self.inner.head(layer, head)
    }

    fn observe_attention(&mut self, layer: usize, head: usize, scores: &[(TokenId, f32)]) {
        self.log.events.push(ReplayEvent::Observe {
            layer: layer as u32,
            head: head as u32,
            len: scores.len() as u32,
        });
        self.log
            .scores
            .extend(scores.iter().map(|&(token, p)| (token as u32, p)));
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
    use crate::cache::{CacheBudget, CachePolicy, PayloadRef};
    use crate::fault::BitFlipRates;

    /// The full store over the recordings' two heads.
    fn full_store() -> Box<dyn KvCacheBackend> {
        CachePolicy::Full.build(CacheBudget::new(usize::MAX), 2)
    }

    fn faults() -> ProbabilisticFaults {
        ProbabilisticFaults::new(BitFlipRates::zero(), 7)
    }

    /// Every entry of `(layer, head)`: token, high-score label, key, value.
    fn visited(
        cache: &dyn KvCacheBackend,
        layer: usize,
        head: usize,
    ) -> Vec<(TokenId, bool, Vec<f32>, Vec<f32>)> {
        let mut out = Vec::new();
        cache.for_each_entry(layer, head, &mut |e| {
            let PayloadRef::Kv { key, value } = e.payload else {
                unreachable!("the full cache stores KV")
            };
            out.push((e.token, e.high_score(), key.to_vec(), value.to_vec()));
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
        assert_eq!(recorder.tokens, tokens);
        recorder.finish(&[0.5, 0.25], faults())
    }

    #[test]
    fn replay_reproduces_recorded_backend_state() {
        let mut original = full_store();
        let segment = record(&mut *original, 3);
        assert_eq!(segment.len(), 3);

        let mut replayed = full_store();
        segment.attach_and_replay(&mut *replayed);
        for layer in 0..2 {
            for head in 0..2 {
                assert_eq!(
                    visited(&*original, layer, head),
                    visited(&*replayed, layer, head),
                    "layer {layer} head {head}"
                );
            }
        }
        assert_eq!(original.stats(), replayed.stats());
    }

    #[test]
    fn bytes_count_the_raw_kv_of_every_insert() {
        let mut original = full_store();
        let segment = record(&mut *original, 4);
        // 4 tokens × 2 layers, each a keys and a values row of 2 heads × 2
        // elements at 2 bytes: what the full cache stores for the prefix.
        assert_eq!(segment.bytes_fp16(), 4 * 2 * 2 * 4 * 2);
        assert_eq!(segment.bytes_fp16(), original.stats().bytes_fp16);
    }

    #[test]
    fn snapshot_carries_cursor_state() {
        let mut inner = full_store();
        let segment = record(&mut *inner, 2);
        assert_eq!(segment.logits(), &[0.5, 0.25]);
    }

    #[test]
    #[should_panic(expected = "empty prefix segment")]
    fn empty_recording_cannot_publish() {
        let mut inner = full_store();
        let recorder = SegmentRecorder::new(&mut *inner);
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
                recorder.mark_boundary(&[t as f32, 0.5]);
                next += 1;
            }
        }
        recorder.finish_hierarchy()
    }

    #[test]
    fn one_pass_publishes_every_boundary() {
        let mut inner = full_store();
        let segments = record_hierarchy(&mut *inner, 4, &[1, 2, 4]);
        assert_eq!(segments.len(), 3);
        assert_eq!(
            segments.iter().map(SharedSegment::len).collect::<Vec<_>>(),
            vec![1, 2, 4]
        );

        // Each boundary segment replays exactly the state a dedicated
        // recording of just that prefix would have produced.
        for segment in &segments {
            let mut dedicated_inner = full_store();
            let dedicated = record(&mut *dedicated_inner, segment.len());
            let mut a = full_store();
            let mut b = full_store();
            segment.attach_and_replay(&mut *a);
            dedicated.attach_and_replay(&mut *b);
            for layer in 0..2 {
                for head in 0..2 {
                    assert_eq!(
                        visited(&*a, layer, head),
                        visited(&*b, layer, head),
                        "len {} layer {layer} head {head}",
                        segment.len()
                    );
                }
            }
            // The boundary cursor is the boundary's own, not the final one.
            assert_eq!(segment.logits(), &[(segment.len() - 1) as f32, 0.5]);
            assert_eq!(segment.bytes_fp16(), dedicated.bytes_fp16());
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn duplicate_boundary_rejected() {
        let mut inner = full_store();
        let mut recorder = SegmentRecorder::new(&mut *inner);
        recorder.insert(0, 0, &[0.0; 4], &[0.0; 4], &[0.0; 4], 2);
        recorder.mark_boundary(&[0.0]);
        recorder.mark_boundary(&[0.0]);
    }
}
