//! Multi-head self-attention over a pluggable KV cache.
//!
//! This module implements the paper's Eq. 1 and Eq. 2 exactly: for the current
//! token's query `q^h_N`, attention scores are the softmax of dot products with
//! every cached key `k^h_n`, and the head output `y^h_N` is the score-weighted
//! sum of cached values `v^h_n`.  The cached entries may arrive in any order
//! (the permutation-invariance property of §2.2 that lets Kelle reuse evicted
//! slots), and an entry may carry either the KV vectors themselves or the
//! token's input vector `x_n`, in which case the key/value are recomputed
//! through `W_K`/`W_V` on the fly (§4.1.2).
//!
//! # The fused, allocation-free pass
//!
//! The one forward body is [`MultiHeadAttention::forward_with`]: it threads a
//! caller-owned [`DecodeScratch`] through the whole computation and visits the
//! cache through the borrowed [`EntryRef`](crate::cache::EntryRef) API, so a
//! steady-state decode step touches the heap not at all.  Every decode step
//! any serving executor runs goes through it, on the session's thread.  Per
//! layer it first projects the token's query, key and value through the one
//! four-row-blocked matvec kernel
//! ([`Matrix::matvec_into`](kelle_tensor::Matrix::matvec_into)) and rotates
//! every query and key head by one RoPE angle table of the token's position
//! ([`ops::rope_angles`], applied by [`ops::rotate`]), built once per
//! position and shared by every layer.  Then it runs three phases:
//!
//! 1. **Read the heads.**  One
//!    [`for_each_entry`](KvCacheBackend::for_each_entry) traversal per head,
//!    on that head's fault lane.  A `Kv` entry's value is copied into the
//!    stash; an entry of an earlier pass has its key copied into scratch
//!    and both corrupted there at its HST/LST label, an entry of the current
//!    pass is read clean (its stored key scores it directly, no lane call is
//!    made and no label is asked for).  Either way the entry is scored at
//!    once.  A `Recompute` entry of the open pass is scored from the key the
//!    pass holds for it, and its held value is stashed: no row-table visit,
//!    no recompute (see the pass rule below).  Any other `Recompute` entry enters the layer's row table
//!    under its slot (no hashing), with its label if an earlier pass
//!    computed it, and reserves its value's place in the stash.  A label is
//!    asked for only where a read goes through the lane, so the head's
//!    median is selected at most once per traversal, and never in a pass
//!    that reads every row clean.
//! 2. **Read the rows.**  Each distinct stored row is copied once and, if an
//!    earlier pass computed it, corrupted once on the layer's row lane,
//!    whatever number of heads retain it; a row of the current pass that
//!    is not held (a decode step's own) skips the lane.  Then, for every
//!    head that retains a row and only for those, the head's `head_dim`
//!    rows of `W_K`/`W_V` recompute its key and value, two rows at a time:
//!    consecutive (head, row) pairs of one head share a pass over its
//!    weight rows
//!    ([`Matrix::matvec_rows_pair_into`](kelle_tensor::Matrix::matvec_rows_pair_into)),
//!    a lone one takes
//!    [`Matrix::matvec_rows_into`](kelle_tensor::Matrix::matvec_rows_into),
//!    and both are bitwise the single-row product.  The row's angle table
//!    rotates the key, and the key scores the entry while the value fills
//!    its stashed slot.  Angle tables are kept per (layer, input-slab slot)
//!    across steps and rebuilt only when the slot holds a new token, so a
//!    stored row's table is built once in its lifetime and their memory is
//!    bounded by the slab, not by the context length.
//! 3. **Attend per head.**  [`ops::softmax_into`] in place over the head's
//!    scores, the weighted-value accumulation from the stash in entry order,
//!    then [`observe_attention`](KvCacheBackend::observe_attention).
//!
//! Phase 1 reads every head before phase 3 reports any of them.  That is
//! sound because `observe_attention(layer, h)` may change nothing that another
//! head of the layer visits (the [`KvCacheBackend`] contract), and a head's
//! own reads all precede its own report.  A policy that stores no rows pays
//! nothing for phase 2.
//!
//! Every rotation is the same arithmetic on the same table entries, so a
//! key recomputed and rotated by its row's table equals, bit for bit, the
//! key its own forward rotated by its position's table: without faults AERP
//! (which stores rows) serves exactly what H2O (which stores keys) serves.
//!
//! What the pass computes is pinned outside the code: the golden matrices in
//! `tests/integration_decode_alloc.rs` (model level) and
//! `tests/integration_golden.rs` (serving level) hold token streams,
//! probability bits, cache and fault counters to captured constants.
//!
//! Retention faults are applied by the [`FaultInjector`] to the *stored*
//! representation at read time, where the bits physically live in eDRAM: a
//! `Kv` entry's key and value on its `(layer, head)` lane, since they are
//! stored per head; a `Recompute` entry's input vector once per layer on the
//! row lane, since it is stored once per layer, at the most demanding group
//! any retaining head ranks it in (see [`crate::fault`]).  The stored bits
//! themselves are never modified; corrupted reads are staged in scratch.
//!
//! # The pass rule
//!
//! A row computed by the current pass is read clean: it has not yet sat in
//! eDRAM (see "What is read clean" in [`crate::fault`]).  The pass starts at
//! the token [`GenerationState`](crate::generation::GenerationState) records
//! in the scratch — a turn's first prompt token, or the first replayed
//! token of a prefix hit — and every entry whose token is at or after it is
//! in the pass.  A forward that no generation state opened a pass for is a
//! block of one: only the token's own row is clean.
//!
//! The pass keeps what it read clean on the host, as the device keeps it in
//! on-chip buffers: while a pass is open, each forward appends its token's
//! rotated keys and values to the scratch, per layer, and a prefix hit's
//! replayed rows are held from the segment's recording of the publication
//! pass.  Phase 1 reads an AERP entry of the pass from there instead of
//! recomputing it from its stored row, so a prompt's attention no longer
//! recomputes every earlier row of the prompt at every step.  The entry
//! still counts in `recomputed_entries`: the device recomputes it, and that
//! is what the hardware model bills.  A held key equals the recomputed one
//! bit for bit (the rotation argument above), and a debug build checks it
//! at every held read.  Rows of earlier passes go through phase 2 in the
//! same row-table order as before, so the lanes draw the same words.
//! Closing the pass drops the held rows; a decode step holds none.

use crate::cache::{KvCacheBackend, PayloadRef, TokenId};
use crate::fault::{FaultInjector, TokenGroup};
use crate::weights::LayerWeights;
use kelle_tensor::ops;

/// Reusable buffers for the allocation-free decode hot path.
///
/// One instance travels with a generation state
/// ([`GenerationState`](crate::generation::GenerationState) owns one) and is
/// threaded through [`MultiHeadAttention::forward_with`], the decoder layer
/// loop and the LM head.  Every buffer is cleared (`len = 0`) and refilled
/// each step; capacities warm up over the first few steps and then stay put,
/// so steady-state decoding performs zero heap allocation.
#[derive(Debug, Clone, Default)]
pub struct DecodeScratch {
    /// Query projection, length `channels` (RoPE applied per head chunk).
    pub(crate) q: Vec<f32>,
    /// Key projection of the current token, flat head-major.
    pub(crate) k: Vec<f32>,
    /// Value projection of the current token, flat head-major.
    pub(crate) v: Vec<f32>,
    /// Raw scores, then (after `softmax_into`) probabilities, of every head's
    /// entries, head after head.
    pub(crate) scores: Vec<f32>,
    /// Token ids of the visited entries, parallel to `scores`.
    pub(crate) tokens: Vec<TokenId>,
    /// Per head, where its entries start in `scores` and its staged values in
    /// `stash`; one more mark closes the last head.
    heads_at: Vec<(usize, usize)>,
    /// Staged value vectors, `head_dim` per entry of every head, in entry
    /// order: a `Kv` entry's value copied and corrupted, a `Recompute`
    /// entry's value recomputed from its corrupted row.
    pub(crate) stash: Vec<f32>,
    /// Staging buffer for a corrupted or recomputed key, length `head_dim`.
    pub(crate) kbuf: Vec<f32>,
    /// The RoPE angle table of the current token's position, shared by its
    /// query and key heads in every layer.
    angles: Vec<(f32, f32)>,
    /// The position `angles` was built for.
    angles_at: Option<usize>,
    /// The first token of the open pass, if a generation state opened one;
    /// entries from it on are read clean.  `None` makes every forward a
    /// block of one.
    pass_start: Option<TokenId>,
    /// The rotated keys and values of the open pass's rows, from its first
    /// token on; empty when no pass is open.
    held: HeldRows,
    /// The layer's stored input rows, each read once per layer.
    rows: RowTable,
    /// Per layer, the RoPE angle tables of the rows its input slab stores,
    /// kept across steps.
    slot_angles: Vec<SlotAngles>,
    /// Per-head attention output `y^h`, length `head_dim`.
    pub(crate) yh: Vec<f32>,
    /// Concatenated head outputs, length `channels`.
    pub(crate) concat: Vec<f32>,
    /// Attention block output after `W_O`, length `channels`.
    pub(crate) attn_out: Vec<f32>,
    /// Post-softmax attention labels per head (inner vectors reused).
    pub(crate) attention: Vec<Vec<(TokenId, f32)>>,
    /// Normalized layer input / FFN input staging, length `channels`.
    pub(crate) normed: Vec<f32>,
    /// FFN gate projection, length `ffn_dim`.
    pub(crate) gate: Vec<f32>,
    /// FFN up projection, length `ffn_dim`.
    pub(crate) up: Vec<f32>,
    /// FFN down projection, length `channels`.
    pub(crate) ffn: Vec<f32>,
    /// Residual-stream hidden state, length `channels`.
    pub(crate) hidden: Vec<f32>,
    /// LM-head logits, length `vocab`.
    pub(crate) logits: Vec<f32>,
}

impl DecodeScratch {
    /// Creates an empty scratch; buffers grow to their working sizes during
    /// the first step they are used in.
    pub fn new() -> Self {
        DecodeScratch::default()
    }

    /// The attention block output of the most recent
    /// [`forward_with`](MultiHeadAttention::forward_with) call.
    pub fn output(&self) -> &[f32] {
        &self.attn_out
    }

    /// The per-head post-softmax attention labels of the most recent pass.
    pub fn attention_labels(&self) -> &[Vec<(TokenId, f32)>] {
        &self.attention
    }

    /// Opens a pass at `start` unless one is open: every forward until
    /// [`end_pass`](Self::end_pass) holds its row's keys and values.
    pub(crate) fn open_pass(&mut self, start: TokenId) {
        self.pass_start.get_or_insert(start);
    }

    /// Holds `layer`'s next row of the open pass: a row the pass did not
    /// compute itself, such as a replayed prefix's.
    pub(crate) fn hold(&mut self, layer: usize, token: TokenId, keys: &[f32], values: &[f32]) {
        let start = self.pass_start.expect("rows are held only in an open pass");
        self.held.push(layer, token - start, keys, values);
    }

    /// Closes the open pass and drops its held rows.
    pub(crate) fn end_pass(&mut self) {
        self.pass_start = None;
        self.held = HeldRows::default();
    }

    /// The keys and values of the open pass's rows held for `layer`, flat.
    #[cfg(test)]
    pub(crate) fn held_rows(&self, layer: usize) -> (&[f32], &[f32]) {
        self.held.layer(layer)
    }
}

/// The rotated keys and values of the open pass's rows, per layer, in token
/// order from the pass's first token: `width` (`channels`) floats per row,
/// head-major.  A `Recompute` entry of the pass reads its key and value
/// here instead of recomputing them from its stored row.
#[derive(Debug, Clone, Default)]
struct HeldRows {
    width: usize,
    keys: Vec<Vec<f32>>,
    values: Vec<Vec<f32>>,
}

impl HeldRows {
    /// Appends `layer`'s row `index` (counted from the pass's first token).
    fn push(&mut self, layer: usize, index: usize, keys: &[f32], values: &[f32]) {
        if self.keys.len() <= layer {
            self.keys.resize_with(layer + 1, Vec::new);
            self.values.resize_with(layer + 1, Vec::new);
        }
        self.width = keys.len();
        // Phase 1 finds a row by its distance from the pass's first token.
        assert_eq!(self.rows(layer), index, "a pass holds its rows in order");
        self.keys[layer].extend_from_slice(keys);
        self.values[layer].extend_from_slice(values);
    }

    /// The rows held for `layer`.
    fn rows(&self, layer: usize) -> usize {
        self.keys
            .get(layer)
            .map_or(0, |k| k.len() / self.width.max(1))
    }

    /// `layer`'s held keys and values, flat.
    fn layer(&self, layer: usize) -> (&[f32], &[f32]) {
        match (self.keys.get(layer), self.values.get(layer)) {
            (Some(k), Some(v)) => (k, v),
            _ => (&[], &[]),
        }
    }
}

/// The stored input rows of one layer's `Recompute` entries, in the order
/// phase 1 first visits them, plus every (head, row) pair that reads one.
#[derive(Debug, Clone, Default)]
struct RowTable {
    /// Per input-slab slot: the row's index in this table, or
    /// [`RowTable::ABSENT`].
    of_slot: Vec<u32>,
    /// Per row: its slot (to reset `of_slot`).
    slot: Vec<usize>,
    /// Per row: its token, the RoPE position of its recomputed keys.
    token: Vec<TokenId>,
    /// Per row of an earlier pass: whether any head that retains it ranks
    /// it high.  A row of the current pass, read clean, is not ranked.
    high: Vec<bool>,
    /// The rows' stored inputs, `channels` per row: copied, then corrupted,
    /// once per layer.
    x: Vec<f32>,
    /// Every (head, row) pair phase 2 recomputes, head by head in entry
    /// order.
    uses: Vec<RowUse>,
}

/// One head's `Recompute` entry: which row it reads and where its score and
/// stashed value go.
#[derive(Debug, Clone, Copy)]
struct RowUse {
    head: usize,
    row: usize,
    entry: usize,
    stash: usize,
}

impl RowTable {
    const ABSENT: u32 = u32::MAX;

    /// Empties the table for the next layer.
    fn clear(&mut self) {
        for &slot in &self.slot {
            self.of_slot[slot] = Self::ABSENT;
        }
        self.slot.clear();
        self.token.clear();
        self.high.clear();
        self.x.clear();
        self.uses.clear();
    }

    /// The index of the row stored in `slot`, copying `x` in on the row's
    /// first visit.  A row is ranked high once any visit ranks it high.
    fn visit(&mut self, slot: usize, token: TokenId, x: &[f32], high: bool) -> usize {
        if slot >= self.of_slot.len() {
            self.of_slot.resize(slot + 1, Self::ABSENT);
        }
        match self.of_slot[slot] {
            Self::ABSENT => {
                let row = self.slot.len();
                self.of_slot[slot] = row as u32;
                self.slot.push(slot);
                self.token.push(token);
                self.high.push(high);
                self.x.extend_from_slice(x);
                row
            }
            row => {
                let row = row as usize;
                debug_assert_eq!(self.token[row], token, "one slot holds one row");
                self.high[row] |= high;
                row
            }
        }
    }
}

/// One layer's RoPE angle tables of its stored rows, by input-slab slot.
/// A table depends on its token's position alone, so a slot's table is
/// rebuilt only when the slot holds a new token: a stored row's table is
/// built once in its lifetime, and the memory is bounded by the slab.
#[derive(Debug, Clone, Default)]
struct SlotAngles {
    /// Angle pairs per table (`head_dim / 2`).
    half: usize,
    /// Per slot: the token its table was built for.
    token: Vec<Option<TokenId>>,
    /// The tables, `half` per slot.
    angles: Vec<(f32, f32)>,
}

impl SlotAngles {
    /// The table of the row `token` stored in `slot`, built by `build` when
    /// the slot's table belongs to another token.
    fn table<I: Iterator<Item = (f32, f32)>>(
        &mut self,
        slot: usize,
        token: TokenId,
        half: usize,
        build: impl FnOnce() -> I,
    ) -> &[(f32, f32)] {
        if self.half != half {
            *self = SlotAngles {
                half,
                ..SlotAngles::default()
            };
        }
        if slot >= self.token.len() {
            self.token.resize(slot + 1, None);
            self.angles.resize((slot + 1) * half, (0.0, 0.0));
        }
        let table = &mut self.angles[slot * half..(slot + 1) * half];
        if self.token[slot] != Some(token) {
            for (entry, angle) in table.iter_mut().zip(build()) {
                *entry = angle;
            }
            self.token[slot] = Some(token);
        }
        table
    }
}

/// The token group a read is corrupted at.
fn group(high_score: bool) -> TokenGroup {
    if high_score {
        TokenGroup::HighScore
    } else {
        TokenGroup::LowScore
    }
}

/// Multi-head attention operator bound to one layer's weights.
#[derive(Debug)]
pub struct MultiHeadAttention<'w> {
    weights: &'w LayerWeights,
    heads: usize,
    head_dim: usize,
    rope_theta: f32,
}

impl<'w> MultiHeadAttention<'w> {
    /// Creates the attention operator for a layer.
    ///
    /// # Panics
    ///
    /// Panics if the weight matrices are not square or not divisible by `heads`.
    pub fn new(weights: &'w LayerWeights, heads: usize) -> Self {
        let channels = weights.wq.rows();
        assert_eq!(weights.wq.shape(), (channels, channels));
        assert_eq!(
            channels % heads,
            0,
            "channels must divide evenly into heads"
        );
        MultiHeadAttention {
            weights,
            heads,
            head_dim: channels / heads,
            rope_theta: 10_000.0,
        }
    }

    /// Projects an input vector to per-head keys and values (with RoPE applied
    /// to the keys) into caller-owned buffers (cleared and refilled).
    ///
    /// The result is laid out head-major as flat `channels`-length vectors:
    /// head `h` owns elements `[h·head_dim, (h+1)·head_dim)` — the layout the
    /// cache [`insert`](KvCacheBackend::insert) contract expects.  Every key
    /// head is rotated by one angle table of `position`, collected here on
    /// the heap; the forward pass shares its own table with the query.
    pub fn project_kv_into(&self, x: &[f32], position: usize, k: &mut Vec<f32>, v: &mut Vec<f32>) {
        let angles: Vec<(f32, f32)> = self.rope_angles(position).collect();
        self.project_kv_rotated(x, &angles, k, v);
    }

    /// The RoPE angle table of `position` for one head.
    fn rope_angles(&self, position: usize) -> impl Iterator<Item = (f32, f32)> {
        ops::rope_angles(position, self.head_dim, self.rope_theta)
    }

    /// [`project_kv_into`](Self::project_kv_into) with the position's angle
    /// table already built.
    fn project_kv_rotated(
        &self,
        x: &[f32],
        angles: &[(f32, f32)],
        k: &mut Vec<f32>,
        v: &mut Vec<f32>,
    ) {
        self.weights
            .wk
            .matvec_into(x, k)
            .expect("input length matches channel dimension");
        self.weights
            .wv
            .matvec_into(x, v)
            .expect("input length matches channel dimension");
        for kh in k.chunks_exact_mut(self.head_dim) {
            ops::rotate(kh, angles);
        }
    }

    /// Runs one decoding-step attention forward pass through the reusable
    /// `scratch`, leaving the block output in [`DecodeScratch::output`] and
    /// the per-head labels in [`DecodeScratch::attention_labels`].
    ///
    /// `x` is the normalized layer input for the current token at sequence
    /// position `position`; the current token is inserted into `cache` before
    /// attending, so it always attends at least to itself.  Returns
    /// `(recomputed_entries, kv_entries_read)`, both counted per head.
    ///
    /// This is the allocation-free hot path: cache entries are visited as
    /// borrowed [`EntryRef`](crate::cache::EntryRef) views, and every stored
    /// word an earlier pass wrote is staged through `scratch` and `faults`.
    /// The three phases and the pass rule are described in the module docs.
    #[allow(clippy::too_many_arguments)] // the decode-step contract: position + data + 3 collaborators
    pub fn forward_with(
        &self,
        layer: usize,
        token: TokenId,
        position: usize,
        x: &[f32],
        cache: &mut dyn KvCacheBackend,
        faults: &mut dyn FaultInjector,
        scratch: &mut DecodeScratch,
    ) -> (usize, usize) {
        let hd = self.head_dim;

        if scratch.angles_at != Some(position) || scratch.angles.len() != hd / 2 {
            scratch.angles.clear();
            scratch.angles.extend(self.rope_angles(position));
            scratch.angles_at = Some(position);
        }
        self.weights
            .wq
            .matvec_into(x, &mut scratch.q)
            .expect("input length matches channel dimension");
        for qh in scratch.q.chunks_exact_mut(hd) {
            ops::rotate(qh, &scratch.angles);
        }
        self.project_kv_rotated(x, &scratch.angles, &mut scratch.k, &mut scratch.v);

        cache.insert(layer, token, x, &scratch.k, &scratch.v, hd);
        if let Some(start) = scratch.pass_start {
            scratch
                .held
                .push(layer, token - start, &scratch.k, &scratch.v);
        }

        scratch.concat.clear();
        scratch.concat.resize(self.heads * hd, 0.0);
        if scratch.attention.len() != self.heads {
            scratch.attention.resize_with(self.heads, Vec::new);
        }
        scratch.scores.clear();
        scratch.tokens.clear();
        scratch.heads_at.clear();
        scratch.stash.clear();
        scratch.rows.clear();

        let pass_start = scratch.pass_start.unwrap_or(token);
        let mut recomputed_entries = 0usize;
        let mut kv_entries_read = 0usize;

        for h in 0..self.heads {
            faults.begin_lane(layer, h);
            let (rec, read) = self.read_head(layer, h, pass_start, &*cache, faults, scratch);
            recomputed_entries += rec;
            kv_entries_read += read;
        }
        scratch
            .heads_at
            .push((scratch.scores.len(), scratch.stash.len()));
        self.read_rows(layer, pass_start, faults, scratch);
        for h in 0..self.heads {
            self.attend_head(h, scratch);
            cache.observe_attention(layer, h, &scratch.attention[h]);
        }

        self.weights
            .wo
            .matvec_into(&scratch.concat, &mut scratch.attn_out)
            .expect("concatenated head outputs match channel dimension");

        (recomputed_entries, kv_entries_read)
    }

    /// Phase 1 for head `h`: one traversal of its entries on its fault lane.
    /// Scores every `Kv` entry from its staged key and stashes its staged
    /// value — stored as they are from `pass_start` on, corrupted at its
    /// label before it; scores a `Recompute` entry the pass holds from its
    /// held key and stashes its held value; enters every other `Recompute`
    /// entry's row in the row table, labelled if it precedes `pass_start`,
    /// and reserves the entry's score and stashed value for phase 2.  Asks
    /// for no other label.  Returns `(recomputed_entries, kv_entries_read)`
    /// for this head.
    fn read_head(
        &self,
        layer: usize,
        h: usize,
        pass_start: TokenId,
        cache: &dyn KvCacheBackend,
        faults: &mut dyn FaultInjector,
        scratch: &mut DecodeScratch,
    ) -> (usize, usize) {
        let hd = self.head_dim;
        let scale = 1.0 / (hd as f32).sqrt();
        let DecodeScratch {
            q,
            scores,
            tokens,
            heads_at,
            stash,
            kbuf,
            rows,
            held,
            ..
        } = scratch;
        heads_at.push((scores.len(), stash.len()));
        let qh = &q[h * hd..(h + 1) * hd];
        let (held_keys, held_values) = held.layer(layer);
        let held_rows = held.rows(layer);
        // Where the entry of `token` finds its head's held key and value.
        let held_at = |token: TokenId| {
            let index = token.checked_sub(pass_start)?;
            (index < held_rows).then(|| index * held.width + h * hd)
        };
        let mut recomputed_entries = 0usize;
        let mut kv_entries_read = 0usize;

        cache.for_each_entry(layer, h, &mut |e| {
            let score = match e.payload {
                PayloadRef::Kv { key, value } if e.token >= pass_start => {
                    kv_entries_read += 1;
                    stash.extend_from_slice(value);
                    kelle_tensor::dot(key, qh) * scale
                }
                PayloadRef::Kv { key, value } => {
                    kv_entries_read += 1;
                    let group = group(e.high_score());
                    kbuf.clear();
                    kbuf.extend_from_slice(key);
                    faults.corrupt_slice(kbuf, group);
                    let start = stash.len();
                    stash.extend_from_slice(value);
                    faults.corrupt_slice(&mut stash[start..], group);
                    kelle_tensor::dot(kbuf, qh) * scale
                }
                PayloadRef::Recompute { x, slot } => {
                    recomputed_entries += 1;
                    match held_at(e.token) {
                        Some(at) => {
                            let (key, value) = (&held_keys[at..at + hd], &held_values[at..at + hd]);
                            #[cfg(debug_assertions)]
                            self.audit_held(h, e.token, x, key, value);
                            stash.extend_from_slice(value);
                            kelle_tensor::dot(key, qh) * scale
                        }
                        None => {
                            // Only a row of an earlier pass is read through the
                            // lane, so only its label is asked for.
                            let high = e.token < pass_start && e.high_score();
                            let row = rows.visit(slot, e.token, x, high);
                            rows.uses.push(RowUse {
                                head: h,
                                row,
                                entry: scores.len(),
                                stash: stash.len(),
                            });
                            stash.resize(stash.len() + hd, 0.0);
                            0.0 // scored in phase 2
                        }
                    }
                }
            };
            scores.push(score);
            tokens.push(e.token);
        });
        (recomputed_entries, kv_entries_read)
    }

    /// Phase 2: reads each of the layer's stored rows once — a row from
    /// before `pass_start` on the row lane `(layer, heads)` at the group of
    /// its most demanding head, a row of the pass as stored — then
    /// recomputes key and value of every (head, row) pair phase 1 found —
    /// the head's rows of `W_K`/`W_V` only, two pairs of the same head per
    /// pass over them — rotating the key by its slot's angle table, scoring
    /// the entry and filling its stashed value.
    fn read_rows(
        &self,
        layer: usize,
        pass_start: TokenId,
        faults: &mut dyn FaultInjector,
        scratch: &mut DecodeScratch,
    ) {
        let DecodeScratch {
            q,
            scores,
            stash,
            kbuf,
            rows,
            slot_angles,
            ..
        } = scratch;
        if rows.uses.is_empty() {
            return;
        }
        let hd = self.head_dim;
        let channels = self.heads * hd;
        let scale = 1.0 / (hd as f32).sqrt();
        // A label no head uses, so the row lane is snapshotted with the head
        // lanes.
        faults.begin_lane(layer, self.heads);
        for ((x, &high), &token) in rows
            .x
            .chunks_exact_mut(channels)
            .zip(&rows.high)
            .zip(&rows.token)
        {
            if token < pass_start {
                faults.corrupt_slice(x, group(high));
            }
        }
        if slot_angles.len() <= layer {
            slot_angles.resize_with(layer + 1, SlotAngles::default);
        }
        let tables = &mut slot_angles[layer];
        let x_of = |row: usize| &rows.x[row * channels..(row + 1) * channels];
        kbuf.clear();
        kbuf.resize(2 * hd, 0.0);
        let mut uses = &rows.uses[..];
        while let [u, rest @ ..] = uses {
            let head_rows = u.head * hd..(u.head + 1) * hd;
            // Two uses of one head share a pass over its weight rows; their
            // stashed values are disjoint slots, in entry order.
            let pair = match rest {
                [w, after @ ..] if w.head == u.head => {
                    uses = after;
                    Some(w)
                }
                _ => {
                    uses = rest;
                    None
                }
            };
            let (k0, k1) = kbuf.split_at_mut(hd);
            match pair {
                Some(w) => {
                    let (v0, v1) = stash.split_at_mut(w.stash);
                    self.weights
                        .wk
                        .matvec_rows_pair_into(
                            head_rows.clone(),
                            [x_of(u.row), x_of(w.row)],
                            [k0, k1],
                        )
                        .expect("stored input matches channel dimension");
                    self.weights
                        .wv
                        .matvec_rows_pair_into(
                            head_rows.clone(),
                            [x_of(u.row), x_of(w.row)],
                            [&mut v0[u.stash..u.stash + hd], &mut v1[..hd]],
                        )
                        .expect("stored input matches channel dimension");
                }
                None => {
                    self.weights
                        .wk
                        .matvec_rows_into(head_rows.clone(), x_of(u.row), k0)
                        .expect("stored input matches channel dimension");
                    self.weights
                        .wv
                        .matvec_rows_into(
                            head_rows.clone(),
                            x_of(u.row),
                            &mut stash[u.stash..u.stash + hd],
                        )
                        .expect("stored input matches channel dimension");
                }
            }
            for (u, k) in std::iter::once(u)
                .chain(pair)
                .zip(kbuf.chunks_exact_mut(hd))
            {
                let (slot, token) = (rows.slot[u.row], rows.token[u.row]);
                ops::rotate(
                    k,
                    tables.table(slot, token, hd / 2, || self.rope_angles(token)),
                );
                scores[u.entry] = kelle_tensor::dot(k, &q[head_rows.clone()]) * scale;
            }
        }
    }

    /// Recomputes head `h`'s key and value of the pass's row `token` from its
    /// stored input `x`, as phase 2 would, and checks that the held copy
    /// equals them bit for bit.
    #[cfg(debug_assertions)]
    fn audit_held(&self, h: usize, token: TokenId, x: &[f32], key: &[f32], value: &[f32]) {
        let hd = self.head_dim;
        let head_rows = h * hd..(h + 1) * hd;
        let (mut k, mut v) = (vec![0.0; hd], vec![0.0; hd]);
        self.weights
            .wk
            .matvec_rows_into(head_rows.clone(), x, &mut k)
            .expect("stored input matches channel dimension");
        self.weights
            .wv
            .matvec_rows_into(head_rows, x, &mut v)
            .expect("stored input matches channel dimension");
        let angles: Vec<(f32, f32)> = self.rope_angles(token).collect();
        ops::rotate(&mut k, &angles);
        let bits = |s: &[f32]| s.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&k), bits(key), "held key of token {token}, head {h}");
        assert_eq!(
            bits(&v),
            bits(value),
            "held value of token {token}, head {h}"
        );
    }

    /// Phase 3 for head `h`: in-place softmax over its scores, then the
    /// weighted-value accumulation (Eq. 2) over its staged values in entry
    /// order, writing the head output into its `head_dim` slice of the
    /// concat buffer and the post-softmax labels into its label vector.
    /// Reporting the labels back through
    /// [`KvCacheBackend::observe_attention`] is the caller's responsibility.
    fn attend_head(&self, h: usize, scratch: &mut DecodeScratch) {
        let hd = self.head_dim;
        let DecodeScratch {
            scores,
            tokens,
            heads_at,
            stash,
            yh,
            concat,
            attention,
            ..
        } = scratch;
        let ((e0, s0), (e1, s1)) = (heads_at[h], heads_at[h + 1]);
        let probs = &mut scores[e0..e1];
        ops::softmax_into(probs);

        yh.clear();
        yh.resize(hd, 0.0);
        for (&p, val) in probs.iter().zip(stash[s0..s1].chunks_exact(hd)) {
            for (o, vi) in yh.iter_mut().zip(val) {
                *o += p * vi;
            }
        }

        let labels = &mut attention[h];
        labels.clear();
        labels.extend(
            tokens[e0..e1]
                .iter()
                .copied()
                .zip(scores[e0..e1].iter().copied()),
        );
        concat[h * hd..(h + 1) * hd].copy_from_slice(yh);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheBudget, CachePolicy};
    use crate::config::SurrogateDims;
    use crate::fault::NoFaults;
    use crate::weights::{ModelWeights, WeightGenConfig};

    fn setup() -> (ModelWeights, SurrogateDims) {
        let dims = SurrogateDims {
            layers: 1,
            heads: 4,
            channels: 32,
            ffn_dim: 64,
            vocab: 64,
        };
        let weights = ModelWeights::generate(&dims, &WeightGenConfig::default(), 3);
        (weights, dims)
    }

    #[test]
    fn attention_probabilities_sum_to_one() {
        let (weights, dims) = setup();
        let attn = MultiHeadAttention::new(&weights.layers[0], dims.heads);
        let mut cache = CachePolicy::Full.build(CacheBudget::new(usize::MAX), dims.heads);
        let mut faults = NoFaults;
        let mut scratch = DecodeScratch::new();
        for pos in 0..5 {
            let x = weights.embed(pos % dims.vocab, pos);
            attn.forward_with(0, pos, pos, &x, &mut *cache, &mut faults, &mut scratch);
            for head in scratch.attention_labels() {
                let total: f32 = head.iter().map(|(_, p)| p).sum();
                assert!((total - 1.0).abs() < 1e-4);
                assert_eq!(head.len(), pos + 1);
            }
        }
    }

    #[test]
    fn output_dimension_matches_channels() {
        let (weights, dims) = setup();
        let attn = MultiHeadAttention::new(&weights.layers[0], dims.heads);
        let mut cache = CachePolicy::Full.build(CacheBudget::new(usize::MAX), dims.heads);
        let mut faults = NoFaults;
        let mut scratch = DecodeScratch::new();
        let x = weights.embed(1, 0);
        attn.forward_with(0, 0, 0, &x, &mut *cache, &mut faults, &mut scratch);
        assert_eq!(scratch.output().len(), dims.channels);
        assert_eq!(scratch.attention_labels().len(), dims.heads);
    }

    #[test]
    fn scratch_reuse_is_stable_across_steps() {
        let (weights, dims) = setup();
        let attn = MultiHeadAttention::new(&weights.layers[0], dims.heads);
        let mut cache = CachePolicy::Full.build(CacheBudget::new(usize::MAX), dims.heads);
        let mut faults = NoFaults;
        let mut scratch = DecodeScratch::new();
        for pos in 0..4 {
            let x = weights.embed(pos, pos);
            let (rec, read) =
                attn.forward_with(0, pos, pos, &x, &mut *cache, &mut faults, &mut scratch);
            assert_eq!(rec, 0);
            assert_eq!(read, (pos + 1) * dims.heads);
            assert_eq!(scratch.output().len(), dims.channels);
            assert_eq!(scratch.attention_labels().len(), dims.heads);
            for head in scratch.attention_labels() {
                assert_eq!(head.len(), pos + 1);
            }
        }
    }
}
