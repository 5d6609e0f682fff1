//! Multi-head self-attention over a pluggable KV cache.
//!
//! This module implements the paper's Eq. 1 and Eq. 2 exactly: for the current
//! token's query `q^h_N`, attention scores are the softmax of dot products with
//! every cached key `k^h_n`, and the head output `y^h_N` is the score-weighted
//! sum of cached values `v^h_n`.  The cached entries may arrive in any order
//! (the permutation-invariance property of §2.2 that lets Kelle reuse evicted
//! slots), and an entry may carry either the KV vectors themselves or the
//! token's input vector `x_n`, from which the device recomputes the key and
//! value through `W_K`/`W_V` (§4.1.2).
//!
//! # The fused, allocation-free pass
//!
//! The one forward body is [`MultiHeadAttention::forward_with`]: it threads a
//! caller-owned [`DecodeScratch`] through the whole computation and reads
//! each head of the cache as one borrowed
//! [`HeadView`](crate::cache::HeadView) of parallel slices, so a
//! steady-state decode step touches the heap not at all.  Every decode step
//! any serving executor runs goes through it, on the session's thread.  Per
//! layer it first projects the token's query, key and value through the one
//! four-row-blocked matvec kernel
//! ([`Matrix::matvec_into`](kelle_tensor::Matrix::matvec_into)) and rotates
//! every query and key head by one RoPE angle table of the token's position
//! ([`ops::rope_angles`], applied by [`ops::rotate`]), built once per
//! position and shared by every layer.  Then it runs three phases:
//!
//! 1. **Read the heads.**  One [`head`](KvCacheBackend::head) view per
//!    head, split where its tokens reach the pass start (a head's tokens
//!    ascend, so the entries of the current pass are a suffix).  The prefix
//!    of earlier passes is read entry by entry in entry order: a `Kv` entry
//!    has its key copied into scratch and its value into the stash, both
//!    patched there with the words their cells change at its HST/LST label
//!    (see below), and is scored at once; a stored-row (AERP) entry enters the layer's row
//!    table under its slot (no hashing), with its label, its key is copied
//!    beside the table, its value into its place in the stash, and its
//!    score waits for phase 2.  The suffix of the current pass is read clean
//!    (see the pass rule below): its values are stashed as stored and its
//!    keys — the stored K/V, or the key the host keeps beside each stored
//!    row — are scored by one call of the four-row matvec kernel
//!    ([`kelle_tensor::dot_rows_into`]), bitwise one `dot` per key.  No cell
//!    read, no row-table visit, no recompute and no label for it.  The
//!    head's median is selected on a scratch buffer at the first label a
//!    read through the cells asks for, so at most once per head and pass,
//!    and never in a pass that reads every row clean.
//! 2. **Read the rows.**  Each distinct stored row of an earlier pass is
//!    read once per layer, whatever number of heads retain it, at the group
//!    of its most demanding head.  The words its cells change at that
//!    group, with their read values `x′` (see below), are the row's flipped
//!    columns `J`, each with `δ_j = x′_j − x_j` in f32; nothing writes the
//!    row.  Then, for every head that retains the
//!    row and only for those, the host's key and value are corrected for
//!    exactly those words — `K′ = K + rot(W_K,h[:, J]·δ_J)` and
//!    `V′ = V + W_V,h[:, J]·δ_J` — instead of recomputed from the whole row.
//!    The correction reads the layer's head-major column copy of
//!    `[W_K; W_V]`, `2 × head_dim` floats per flipped word (padded to whole
//!    16-float blocks, whose sums stay in registers), and accumulates
//!    over `J` in ascending column order with a separate multiply and add,
//!    so every platform rounds it alike; only the key's part is rotated, by
//!    the row's angle table.  A row with no flipped word is read as stored.
//!    The key scores the entry, and the value stays in its stashed slot.
//!    Angle tables are kept per (layer, input-slab slot) across steps, with
//!    the row's failing words, and rebuilt only when the slot holds a new
//!    token, so a stored row's table is built once in its lifetime and their
//!    memory is bounded by the slab, not by the context length.
//! 3. **Attend per head.**  [`ops::softmax_into`] in place over the head's
//!    scores, the weighted-value accumulation from the stash in entry order,
//!    then [`observe_attention`](KvCacheBackend::observe_attention).
//!
//! Phase 1 reads every head before phase 3 reports any of them.  That is
//! sound because `observe_attention(layer, h)` may change nothing that another
//! head of the layer shows (the [`KvCacheBackend`] contract), and a head's
//! own reads all precede its own report.  A policy that stores no rows pays
//! nothing for phase 2.
//!
//! The device recomputes every `Recompute` entry it reads from the stored
//! `x`, and that is what `recomputed_entries` counts and `kelle-arch` bills;
//! the host's key and value are neither stored on the device nor billed.
//!
//! # Reads reuse a row's failures
//!
//! A stored row's failing cells are a function of its key ([`crate::fault`]),
//! so they are computed once, at the row's first read after its pass, by
//! [`CellMap::fail_row`] for both token groups, and kept in the scratch with
//! their read values `x′` — AERP's rows by (layer, input-slab slot), a
//! KV-format entry's key and value rows by (layer, head, entry) — until the
//! slot or entry holds another token.  A later read takes its group's list:
//! no draw and no FP16 round trip.  The lists sit in one pool per layer or
//! head, compacted when full, so their memory is bounded by the store, not by
//! the context.  The per-slot tables grow to the next power of two of the
//! slab's slots, so a slot first used after warm-up finds its place ready,
//! and a warm decode allocates nothing.  Every read still counts
//! its words and its group's failing bits ([`FaultInjector::count`]).  One
//! scratch serves one store under one injector, as a generation state does.
//!
//! # Exact reads and corrected reads
//!
//! Every rotation is the same arithmetic on the same table entries, so a
//! key recomputed and rotated by its row's table equals, bit for bit, the
//! key its own forward rotated by its position's table.  The store keeps
//! that key and value, so a read of an intact row — every row of the current
//! pass, every row under [`NoFaults`](crate::fault::NoFaults), and every row
//! of an earlier pass whose cells change no word at its group — is bitwise what a recompute
//! from the stored `x` yields: without faults AERP (which stores rows)
//! serves exactly what H2O (which stores keys) serves.
//!
//! A row with flipped words is read as the stored key and value plus a
//! correction.  Projection and rotation are linear, so in exact arithmetic
//! that is the recompute from the corrupted row `x′`; in f32 the two differ
//! in rounding only.  With unit roundoff `u = 2⁻²⁴`, `γ_k = k·u / (1 − k·u)`,
//! `n = channels` and, for each weight row `r` of the head,
//! `P_r = Σ_j |w_rj·x_j|`, `P′_r = Σ_j |w_rj·x′_j|` and
//! `D_r = Σ_{j∈J} |w_rj·δ_j|`, the standard dot-product error bound
//! (`|fl(w·x) − w·x| ≤ γ_n·Σ|w_i·x_i|`) applied to the stored projection, the
//! correction, the recompute and their additions gives, for a value element,
//! `|V′_r − V̂_r| ≤ γ_{n+3}·(P_r + P′_r + D_r)`, where `V̂` is the recompute
//! from `x′`.  A key element `r` of the rotated pair `(a, b)` mixes both rows
//! of its pair (`|sin|, |cos| ≤ 1`) and takes two roundings more:
//! `|K′_r − K̂_r| ≤ γ_{n+5}·Σ_{s∈{a,b}} (P_s + P′_s + D_s)`.  In debug builds
//! (and in this module's unit tests in release too) every corrected read is
//! recomputed from the corrupted row and held to these sums times `γ_{n+8}`,
//! plus `2⁻¹²⁶` for underflow.
//!
//! What the pass computes is pinned outside the code: the golden matrices in
//! `tests/integration_decode_alloc.rs` (model level) and
//! `tests/integration_golden.rs` (serving level) hold token streams,
//! probability bits, cache and fault counters to captured constants, and
//! `tests/integration_oracle.rs` holds the fault-free logits to an f64
//! forward.
//!
//! Retention faults are applied to the *stored* representation at read
//! time, where the bits physically live in eDRAM: a `Kv` entry's key and
//! value under their `(layer, head)` keys, since they are stored per head; a
//! `Recompute` entry's input vector once per layer under the layer's row
//! key, since it is stored once per layer, at the most demanding group any
//! retaining head ranks it in (see [`crate::fault`]).  The stored bits
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
//! An AERP entry of the pass is read from the key and value the store keeps
//! beside its row: those its insert received, from the pass's own
//! projection or, for a prefix hit's replayed rows, from the segment's
//! recording of the publication pass's projection.  So a prompt's attention
//! recomputes no row of the prompt.  The entry still counts in
//! `recomputed_entries`: the device recomputes it, and that is what the
//! hardware model bills.  Rows of earlier passes go through phase 2.

use crate::cache::{select_median, KvCacheBackend, TokenId};
use crate::fault::{CellKey, CellMap, FaultInjector, FaultStats, RowFailures, TokenGroup};
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
    /// order: a `Kv` entry's value copied and patched with its failing
    /// words, a `Recompute` entry's value copied and, if its row read
    /// changed words, corrected.
    pub(crate) stash: Vec<f32>,
    /// Staging buffer for a patched key (`head_dim`) or a key-and-value
    /// correction (one column run of the layer's column copy).
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
    /// The layer's stored input rows of earlier passes, each read once per
    /// layer.
    rows: RowTable,
    /// The median selection's reused buffer.
    ranks: Vec<f32>,
    /// How many head medians the passes through this scratch have selected.
    medians_selected: u64,
    /// Per layer, the RoPE angle tables of the rows its input slab stores,
    /// `head_dim / 2` pairs per slot, built with the row's failing words.
    slot_angles: Vec<Vec<(f32, f32)>>,
    /// Per layer, its stored rows' failing words, by slot.
    slot_failing: Vec<KeptRows>,
    /// Per layer and KV-format head, its entries' failing words.
    entry_failing: Vec<KeptRows>,
    /// The row a first read computes.
    built: RowFailures,
    /// What the reads of the current forward examined and exposed.
    read: FaultStats,
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

    /// How many head medians the passes through this scratch have selected:
    /// at most one per head a pass reads through its cells, none for a head
    /// it reads clean.
    pub(crate) fn medians_selected(&self) -> u64 {
        self.medians_selected
    }

    /// Opens a pass at `start` unless one is open: every row from `start`
    /// on is read clean until [`end_pass`](Self::end_pass).
    pub(crate) fn open_pass(&mut self, start: TokenId) {
        self.pass_start.get_or_insert(start);
    }

    /// Closes the open pass.
    pub(crate) fn end_pass(&mut self) {
        self.pass_start = None;
    }
}

/// The stored input rows of one layer's `Recompute` entries of earlier
/// passes, in the order phase 1 first visits them, plus every (head, row)
/// pair that reads one.
#[derive(Debug, Clone, Default)]
struct RowTable {
    /// Per input-slab slot: the row's index in this table, or
    /// [`RowTable::ABSENT`].
    of_slot: Vec<u32>,
    /// Per row: its slot (to reset `of_slot`).
    slot: Vec<usize>,
    /// Per row: its token, the RoPE position of its keys.
    token: Vec<TokenId>,
    /// Per row: whether any head that retains it ranks it high.
    high: Vec<bool>,
    /// The rows' stored inputs, `channels` per row, as stored.
    x: Vec<f32>,
    /// Per row: its last use in `uses`; every row has one.
    last_use: Vec<u32>,
    /// Every (head, row) pair phase 2 reads, head by head in entry order.
    uses: Vec<RowUse>,
    /// Per use: the use of the same row before it, or
    /// [`RowTable::ABSENT`].
    earlier_use: Vec<u32>,
    /// Per use: the head's stored key, `head_dim` floats, corrected in place.
    keys: Vec<f32>,
    /// The words of the row phase 2 is reading that the read changed, in
    /// ascending column order: each one's column and `δ = x′ − x`.
    flips: Vec<(u32, f32)>,
    /// The row as read, rebuilt for the audit.
    #[cfg(any(debug_assertions, test))]
    read: Vec<f32>,
}

/// One head's `Recompute` entry of an earlier pass: where its score and
/// stashed value go.
#[derive(Debug, Clone, Copy)]
struct RowUse {
    head: usize,
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
        self.last_use.clear();
        self.uses.clear();
        self.earlier_use.clear();
        self.keys.clear();
    }

    /// Makes room for a slab of `slots` slots of `width`-float rows,
    /// rounded up to a power of two as the slab's own buffer grows.
    fn fit(&mut self, slots: usize, width: usize) {
        let slots = slots.next_power_of_two();
        if slots > self.of_slot.len() {
            self.of_slot.resize(slots, Self::ABSENT);
            self.slot.reserve(slots);
            self.token.reserve(slots);
            self.high.reserve(slots);
            self.x.reserve(slots * width);
            self.last_use.reserve(slots);
        }
    }

    /// The index of the row stored in `slot`, copying `x` in on the row's
    /// first visit.  A row is ranked high once any visit ranks it high.
    fn visit(&mut self, slot: usize, token: TokenId, x: &[f32], high: bool) -> usize {
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

    /// Records that head `head` reads `row` into entry `entry`, its value
    /// at `stash`, from its stored `key`.
    fn add_use(&mut self, head: usize, row: usize, (entry, stash): (usize, usize), key: &[f32]) {
        let at = self.uses.len() as u32;
        self.uses.push(RowUse { head, entry, stash });
        self.keys.extend_from_slice(key);
        if row == self.last_use.len() {
            self.earlier_use.push(Self::ABSENT);
            self.last_use.push(at);
        } else {
            self.earlier_use.push(self.last_use[row]);
            self.last_use[row] = at;
        }
    }
}

/// One stored row's failing words at both token groups: where its two lists
/// — the HST list, then the LST one — sit in [`KeptRows::reads`], and the
/// failing bits a read at each group exposes.
#[derive(Debug, Clone, Copy, Default)]
struct Failing {
    start: u32,
    /// Per group (indexed by [`TokenGroup`]): the list's length.
    len: [u32; 2],
    /// Per group: the failing bits a read exposes.
    bits: [u32; 2],
}

/// Stored rows' failing words, kept by an index — a slab slot, or a
/// KV-format head's entry and part — until it holds another token.  The
/// lists of every index share one pool: a rebuilt row appends its lists and
/// leaves its old ones dead, and the live ones move to the pool's front when
/// it fills.  [`fit`](Self::fit) sizes the pool at twice the mean failing
/// words of a row at every index, and two rows more, so a warm pool
/// allocates only if its rows fail far beyond their mean.  Lists of
/// their own per index would not stay allocation-free: at the 2DRP default
/// rates a 64-word row fails in 10–16 words a group, a list's capacity
/// follows the longest row its index has held, and an index first used
/// after warm-up allocates at its first row.
#[derive(Debug, Clone, Default)]
struct KeptRows {
    /// Per index: the token its row was built for.
    token: Vec<Option<TokenId>>,
    /// Per index: its row's failing words.
    failing: Vec<Failing>,
    /// The pool: each word a read changes, with its read value.
    reads: Vec<(u32, f32)>,
    /// The compaction's buffer: each live row's start and index.
    order: Vec<(u32, u32)>,
}

impl KeptRows {
    /// Makes room for `indices` indices of `words`-word rows whose cells
    /// are those of `map`.
    fn fit(&mut self, indices: usize, words: usize, map: &CellMap) {
        if indices > self.token.len() {
            self.token.resize(indices, None);
            self.failing.resize(indices, Failing::default());
            self.order.clear();
            self.order.reserve(indices);
            let room = (2.0 * map.mean_failing_words(words) * indices as f64) as usize + 2 * words;
            self.reads.reserve(room.saturating_sub(self.reads.len()));
        }
    }

    /// The words of the stored row `row` of `key` that a read at `group`
    /// changes, each with its read value, counting the read into `counted`.
    /// The row's failing words are computed under `map` (into `built`) when
    /// `at` holds another token's than `token`, and kept at `at`.
    fn read(
        &mut self,
        (at, token): (usize, TokenId),
        (map, key, row): (&CellMap, CellKey, &[f32]),
        group: TokenGroup,
        built: &mut RowFailures,
        counted: &mut FaultStats,
    ) -> &[(u32, f32)] {
        if self.token[at] != Some(token) {
            // Empty, the old lists are dead to the compaction.
            self.failing[at] = Failing::default();
            map.fail_row(key, row, built);
            self.failing[at] = self.store(built);
            self.token[at] = Some(token);
        }
        let failing = self.failing[at];
        counted.words_examined += row.len() as u64;
        counted.bits_flipped += u64::from(failing.bits[group as usize]);
        let start = (failing.start + failing.len[0] * group as u32) as usize;
        &self.reads[start..start + failing.len[group as usize] as usize]
    }

    /// Appends the lists of `built`, moving the live ones to the front of
    /// the pool first if they do not fit.
    fn store(&mut self, built: &RowFailures) -> Failing {
        const GROUPS: [TokenGroup; 2] = [TokenGroup::HighScore, TokenGroup::LowScore];
        let len = GROUPS.map(|g| built.reads(g).len() as u32);
        let need = (len[0] + len[1]) as usize;
        if self.reads.len() + need > self.reads.capacity() {
            self.order.clear();
            self.order
                .extend((0u32..).zip(&self.failing).map(|(i, row)| (row.start, i)));
            self.order.sort_unstable();
            let mut to = 0;
            for &(start, i) in &self.order {
                let row = &mut self.failing[i as usize];
                let end = start + row.len[0] + row.len[1];
                self.reads
                    .copy_within(start as usize..end as usize, to as usize);
                (row.start, to) = (to, to + end - start);
            }
            self.reads.truncate(to as usize);
            if self.reads.len() + need > self.reads.capacity() {
                // At least double what is live.
                self.reads.reserve(self.reads.len() + need);
            }
        }
        let start = self.reads.len() as u32;
        for g in GROUPS {
            self.reads.extend_from_slice(built.reads(g));
        }
        Failing {
            start,
            len,
            bits: GROUPS.map(|g| built.bits(g) as u32),
        }
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
    /// Panics if the weight matrices are not square or not divisible by
    /// `heads`, or if the weights were generated for another head count.
    pub fn new(weights: &'w LayerWeights, heads: usize) -> Self {
        let channels = weights.wq.rows();
        assert_eq!(weights.wq.shape(), (channels, channels));
        assert_eq!(
            channels % heads,
            0,
            "channels must divide evenly into heads"
        );
        assert_eq!(
            weights.kv_columns_head_dim(),
            channels / heads,
            "the weights were generated for this head count"
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
    /// This is the allocation-free hot path: each head is read as one
    /// borrowed [`HeadView`](crate::cache::HeadView), and every stored word
    /// an earlier pass wrote is staged through `scratch` and read through
    /// the cells of `faults`.
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

        let map = faults.cell_map();
        scratch.read = FaultStats::default();
        if scratch.entry_failing.len() < (layer + 1) * self.heads {
            let heads = (layer + 1) * self.heads;
            scratch.entry_failing.resize_with(heads, KeptRows::default);
        }
        for h in 0..self.heads {
            let (rec, read) = self.read_head(layer, h, pass_start, &*cache, map, scratch);
            recomputed_entries += rec;
            kv_entries_read += read;
        }
        scratch
            .heads_at
            .push((scratch.scores.len(), scratch.stash.len()));
        self.read_rows(layer, map, scratch);
        if map.is_some() {
            faults.count(scratch.read.words_examined, scratch.read.bits_flipped);
        }
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

    /// Phase 1 for head `h`, over the head's view split at `pass_start`.
    /// Each entry of an earlier pass, in entry order: a `Kv` entry's key is
    /// staged and its value stashed, both patched with the words their
    /// cells under `map` change at its label, and it is scored from the
    /// staged key; a `Recompute` entry's row enters the row table, labelled,
    /// its stored key is kept for phase 2 and its stored value stashed.  The entries of the pass
    /// are stashed as stored and scored by one kernel call over their keys.
    /// The head's median is selected at the first label asked for, and only
    /// then.  Returns `(recomputed_entries, kv_entries_read)` for this head.
    fn read_head(
        &self,
        layer: usize,
        h: usize,
        pass_start: TokenId,
        cache: &dyn KvCacheBackend,
        map: Option<&CellMap>,
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
            ranks,
            medians_selected,
            entry_failing,
            built,
            read,
            ..
        } = scratch;
        heads_at.push((scores.len(), stash.len()));
        let qh = &q[h * hd..(h + 1) * hd];
        let view = cache.head(layer, h);
        let split = view.tokens.partition_point(|&t| t < pass_start);
        debug_assert!(
            view.tokens[split..].iter().all(|&t| t >= pass_start),
            "a head's tokens ascend"
        );
        let (keys, values) = (view.keys.chunks_exact(hd), view.values.chunks_exact(hd));
        let mut median = None;
        let mut high = |i: usize| {
            view.high_score(i, |ranked| {
                *median.get_or_insert_with(|| {
                    *medians_selected += 1;
                    select_median(ranked, ranks)
                })
            })
        };

        let earlier = keys.zip(values).take(split).enumerate();
        match view.rows {
            None => {
                let kept = &mut entry_failing[layer * self.heads + h];
                if let Some(map) = map {
                    kept.fit(2 * split, hd, map);
                }
                for (i, (key, value)) in earlier {
                    let group = group(high(i));
                    kbuf.clear();
                    kbuf.extend_from_slice(key);
                    let start = stash.len();
                    stash.extend_from_slice(value);
                    if let Some(map) = map {
                        let token = view.tokens[i];
                        let rows = [
                            (CellKey::key(layer, h, token), key, &mut kbuf[..]),
                            (CellKey::value(layer, h, token), value, &mut stash[start..]),
                        ];
                        for (part, (cells, stored, staged)) in rows.into_iter().enumerate() {
                            let row = (map, cells, stored);
                            for &(j, x) in kept.read((2 * i + part, token), row, group, built, read)
                            {
                                staged[j as usize] = x;
                            }
                        }
                    }
                    scores.push(kelle_tensor::dot(kbuf, qh) * scale);
                }
            }
            Some(stored) => {
                rows.fit(stored.slab.len() / stored.width, stored.width);
                for (i, (key, value)) in earlier {
                    let (slot, token) = (stored.slots[i], view.tokens[i]);
                    let row = rows.visit(slot, token, stored.x(i), high(i));
                    rows.add_use(h, row, (scores.len(), stash.len()), key);
                    stash.extend_from_slice(value);
                    scores.push(0.0); // scored in phase 2
                }
            }
        }

        stash.extend_from_slice(&view.values[split * hd..]);
        let at = scores.len();
        scores.resize(at + view.len() - split, 0.0);
        kelle_tensor::dot_rows_into(&view.keys[split * hd..], qh, &mut scores[at..]);
        for score in &mut scores[at..] {
            *score *= scale;
        }
        tokens.extend_from_slice(view.tokens);
        match view.rows {
            Some(_) => (view.len(), 0),
            None => (0, view.len()),
        }
    }

    /// Phase 2: reads each of the layer's stored rows of earlier passes
    /// once, in row-table order, at the group of its most demanding head,
    /// and takes the words its cells under `map` change there (kept from
    /// the row's first read); then, for every head phase 1 found retaining
    /// the row, corrects the stored key and value for those words (a row
    /// read intact needs nothing), scores the entry with the key and leaves
    /// the value in its stashed slot.
    fn read_rows(&self, layer: usize, map: Option<&CellMap>, scratch: &mut DecodeScratch) {
        let DecodeScratch {
            q,
            scores,
            stash,
            kbuf,
            rows,
            slot_angles,
            slot_failing,
            built,
            read: counted,
            ..
        } = scratch;
        if rows.uses.is_empty() {
            return;
        }
        let hd = self.head_dim;
        let channels = self.heads * hd;
        let scale = 1.0 / (hd as f32).sqrt();
        let half = hd / 2;
        if slot_angles.len() <= layer {
            slot_angles.resize_with(layer + 1, Vec::new);
            slot_failing.resize_with(layer + 1, KeptRows::default);
        }
        let (tables, kept) = (&mut slot_angles[layer], &mut slot_failing[layer]);
        if let Some(map) = map {
            kept.fit(rows.of_slot.len(), channels, map);
            tables.resize(rows.of_slot.len() * half, (0.0, 0.0));
        }
        kbuf.clear();
        kbuf.resize(self.weights.kv_correction_len(), 0.0);
        // Room for every word of a row, so it never grows.
        rows.flips.reserve(channels);
        let RowTable {
            slot,
            token,
            high,
            x,
            last_use,
            uses,
            earlier_use,
            keys,
            flips,
            #[cfg(any(debug_assertions, test))]
            read,
            ..
        } = rows;
        for (row, x) in x.chunks_exact(channels).enumerate() {
            let (slot, token, group) = (slot[row], token[row], group(high[row]));
            flips.clear();
            if let Some(map) = map {
                let key = CellKey::input(layer, self.heads, token);
                if kept.token[slot] != Some(token) {
                    let table = &mut tables[slot * half..(slot + 1) * half];
                    for (entry, angle) in table.iter_mut().zip(self.rope_angles(token)) {
                        *entry = angle;
                    }
                }
                let reads = kept.read((slot, token), (map, key, x), group, built, counted);
                flips.extend(reads.iter().map(|&(j, read)| (j, read - x[j as usize])));
                #[cfg(any(debug_assertions, test))]
                if !flips.is_empty() {
                    read.clear();
                    read.extend_from_slice(x);
                    for &(j, value) in reads {
                        read[j as usize] = value;
                    }
                }
            }
            let mut at = last_use[row];
            while at != RowTable::ABSENT {
                let (u, at_key) = (uses[at as usize], at as usize * hd);
                let key = &mut keys[at_key..at_key + hd];
                if !flips.is_empty() {
                    let angles = &tables[slot * half..(slot + 1) * half];
                    let value = &mut stash[u.stash..u.stash + hd];
                    self.correct(u.head, flips, angles, key, value, kbuf);
                    #[cfg(any(debug_assertions, test))]
                    self.audit_corrected(u.head, token, (x, read), flips, angles, (key, value));
                }
                scores[u.entry] =
                    kelle_tensor::dot(key, &q[u.head * hd..(u.head + 1) * hd]) * scale;
                at = earlier_use[at as usize];
            }
        }
    }

    /// Adds head `h`'s correction for the flipped words `flips` (column,
    /// `δ`) to its stored `key` and `value`: `W_K,h[:, J]·δ_J` rotated by
    /// the row's `angles` to the key, `W_V,h[:, J]·δ_J` to the value, read
    /// from the layer's column copy and accumulated into `correction` (one
    /// column run) over `J` in column order, one multiply and one add per
    /// weight.
    fn correct(
        &self,
        h: usize,
        flips: &[(u32, f32)],
        angles: &[(f32, f32)],
        key: &mut [f32],
        value: &mut [f32],
        correction: &mut [f32],
    ) {
        self.weights.kv_correction(h, flips, correction);
        let (dk, dv) = correction.split_at_mut(self.head_dim);
        ops::rotate(dk, angles);
        for (k, d) in key.iter_mut().zip(dk.iter()) {
            *k += d;
        }
        for (v, d) in value.iter_mut().zip(dv.iter()) {
            *v += d;
        }
    }

    /// Recomputes head `h`'s key and value of the row of `token` from the
    /// row as `read`, a rotated pair of weight rows at a time,
    /// and checks that the corrected `key` and `value` are within the
    /// rounding bound of the module docs of them.  `x` is the row as stored,
    /// `flips` what the read flipped.  Allocates nothing, so a debug build's
    /// decode stays allocation-free.
    #[cfg(any(debug_assertions, test))]
    fn audit_corrected(
        &self,
        h: usize,
        token: TokenId,
        (x, read): (&[f32], &[f32]),
        flips: &[(u32, f32)],
        angles: &[(f32, f32)],
        (key, value): (&[f32], &[f32]),
    ) {
        let unit = f64::from(f32::EPSILON) / 2.0;
        let steps = (x.len() + 8) as f64;
        let gamma = steps * unit / (1.0 - steps * unit);
        let underflow = f64::from(f32::MIN_POSITIVE);
        // P_r + P′_r + D_r of weight row `r`.
        let sum = |w: &kelle_tensor::Matrix, r: usize| -> f64 {
            let row = w.row(r).expect("head row within the matrix");
            let dense: f64 = row
                .iter()
                .zip(x.iter().zip(read))
                .map(|(&w, (&a, &b))| {
                    (f64::from(w) * f64::from(a)).abs() + (f64::from(w) * f64::from(b)).abs()
                })
                .sum();
            let sparse: f64 = flips
                .iter()
                .map(|&(j, d)| (f64::from(row[j as usize]) * f64::from(d)).abs())
                .sum();
            dense + sparse
        };
        let check = |what: &str, i: usize, got: f32, want: f32, bound: f64| {
            assert!(
                (f64::from(got) - f64::from(want)).abs() <= bound,
                "corrected {what} of token {token}, head {h}, element {i}: {got} against \
                 a recompute's {want} (bound {bound:e})"
            );
        };
        let (wk, wv) = (&self.weights.wk, &self.weights.wv);
        let first = h * self.head_dim;
        for (p, angle) in angles.iter().enumerate() {
            let rows = first + 2 * p..first + 2 * p + 2;
            let mut k = [0.0f32; 2];
            wk.matvec_rows_into(rows.clone(), read, &mut k)
                .expect("stored input matches channel dimension");
            ops::rotate(&mut k, std::slice::from_ref(angle));
            let bound = gamma * (sum(wk, rows.start) + sum(wk, rows.start + 1)) + underflow;
            for (i, want) in (2 * p..).zip(k) {
                check("key", i, key[i], want, bound);
            }
            let mut v = [0.0f32; 2];
            wv.matvec_rows_into(rows.clone(), read, &mut v)
                .expect("stored input matches channel dimension");
            for ((i, want), r) in (2 * p..).zip(v).zip(rows) {
                check("value", i, value[i], want, gamma * sum(wv, r) + underflow);
            }
        }
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
    use crate::fault::{BitFlipRates, NoFaults, ProbabilisticFaults};
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

    /// Every corrected read of AERP under uniform 1 % bit flips — MSB
    /// classes included, so exponent bits flip and some corrections are
    /// large — is within the rounding bound of a recompute from the
    /// corrupted row, for 200 steps with eviction at every step, at the
    /// surrogate's 8-wide heads (a column run of one block) and at 12-wide
    /// ones (a run padded to two blocks).  Phase 2 audits each corrected
    /// read, and this module's tests run that audit in release as well as
    /// in dev.
    #[test]
    fn every_corrected_read_is_within_the_bound_of_a_recompute() {
        let (_, dims) = setup();
        every_corrected_read_is_within_the_bound_at(dims);
        every_corrected_read_is_within_the_bound_at(SurrogateDims {
            channels: 48,
            ..dims
        });
    }

    fn every_corrected_read_is_within_the_bound_at(dims: SurrogateDims) {
        let weights = ModelWeights::generate(&dims, &WeightGenConfig::default(), 3);
        let attn = MultiHeadAttention::new(&weights.layers[0], dims.heads);
        let budget = CacheBudget::new(16)
            .with_recent_window(4)
            .with_sink_tokens(2);
        let mut cache = CachePolicy::Aerp.build(budget, dims.heads);
        cache.finish_prefill(0);
        let mut faults = ProbabilisticFaults::new(BitFlipRates::uniform(1e-2), 5);
        let map = faults
            .cell_map()
            .expect("a probabilistic injector has cells")
            .clone();
        let mut scratch = DecodeScratch::new();
        let mut x = Vec::new();
        let (mut corrected, mut largest_delta) = (0, 0.0f32);
        let mut failures = RowFailures::default();
        for pos in 0..200 {
            weights.embed_into((pos * 7 + 3) % dims.vocab, pos, &mut x);
            let before = faults.stats();
            attn.forward_with(0, pos, pos, &x, &mut *cache, &mut faults, &mut scratch);
            // This step's row reads, recomputed from the cells: AERP reads
            // nothing per head.
            let rows = &scratch.rows;
            let mut read = before;
            for (row, x) in rows.x.chunks_exact(dims.channels).enumerate() {
                let group = group(rows.high[row]);
                let key = CellKey::input(0, dims.heads, rows.token[row]);
                map.fail_row(key, x, &mut failures);
                read.words_examined += dims.channels as u64;
                read.bits_flipped += failures.bits(group);
                for &(j, value) in failures.reads(group) {
                    largest_delta = largest_delta.max((value - x[j as usize]).abs());
                }
                if !failures.reads(group).is_empty() {
                    let mut at = rows.last_use[row];
                    while at != RowTable::ABSENT {
                        corrected += 1;
                        at = rows.earlier_use[at as usize];
                    }
                }
            }
            assert_eq!(read, faults.stats(), "step {pos} reads the rows' cells");
        }
        assert!(cache.stats().evictions > 0);
        // 15 earlier rows × 4 heads per step, at 32 or 48 words a row of
        // which about 5 or 8 flip: nearly every read is corrected.
        assert!(corrected > 10_000, "{corrected} corrected reads");
        assert!(
            largest_delta > 1.0,
            "an exponent flip moves a word by more than 1: {largest_delta}"
        );
    }
}
