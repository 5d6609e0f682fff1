//! Contiguous storage under the one KV store
//! ([`KvStore`](crate::KvStore)).
//!
//! The store keeps, per `(layer, head)`, the retained tokens in insertion
//! order with one accumulated score each, and beside them what its policy
//! stores for a token — the *format*, one of the store's four decision
//! points (the others are the victim rule, when it evicts and how an entry
//! is labelled; see the store's docs):
//!
//! * **FP16 K/V** (Full, StreamingLLM, H2O) and **the dequantized int4 K/V
//!   image** (QuaRot) go in a [`KvArena`] per head: two flat `f32` buffers
//!   strided by `head_dim`;
//! * **the input vector `x`** (AERP, §4.1.2) goes once per layer in a
//!   slot-recycling [`InputSlab`], and each head holds the slots of the rows
//!   it retains; its [`KvArena`] then holds a host-only copy of their keys
//!   and values, which the statistics do not bill.
//!
//! The allocation discipline is:
//!
//! * **insert** appends to the arena tail (amortized O(1); the buffers warm
//!   up to the policy budget plus the arriving token and then stop growing);
//! * **evict** removes the entry while *preserving order* (`copy_within` +
//!   truncate), so entry iteration order — and therefore the floating-point
//!   accumulation order of attention — is identical to the historical
//!   per-token-`Vec` storage; and
//! * **read** borrows the arena's and the slab's flat buffers whole (a
//!   head's view, `KvCacheBackend::head`); the steady-state decode path
//!   never clones a stored key or value into the heap.
//!
//! Eq. 1/2 are order-invariant (§2.2), so *correctness* does not depend on
//! the order-preserving eviction; bitwise reproducibility of token streams
//! (the pinned golden fixtures, and the historical entry order) does, which
//! is why the arenas do not use `swap_remove`.
//!
//! Every arena is private to the store that owns it.  A session that hits a
//! published prompt prefix replays the recorded inserts into its own arenas
//! (`kelle_model::segment`); the deduplication of shared prefixes is
//! modelled by the capacity ledger's shared pool, not by aliasing host
//! memory.

/// Bytes per stored element under the logical FP16 storage format the cache
/// statistics report.
pub(crate) const FP16_BYTES: usize = 2;

/// Contiguous K/V storage for one `(layer, head)`: two flat `f32` buffers
/// (keys and values) strided by `head_dim`.
///
/// Entry `i` owns `keys[i*head_dim .. (i+1)*head_dim]` and the corresponding
/// `values` range; which token it holds is the owning head's record.
/// Entries stay in insertion order across evictions (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct KvArena {
    head_dim: usize,
    keys: Vec<f32>,
    values: Vec<f32>,
}

impl KvArena {
    /// Creates an empty arena for vectors of length `head_dim`.
    ///
    /// # Panics
    ///
    /// Panics if `head_dim == 0`.
    pub fn new(head_dim: usize) -> Self {
        assert!(head_dim > 0, "arena stride must be non-zero");
        KvArena {
            head_dim,
            keys: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The per-entry stride (elements per key or value vector).
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.keys.len() / self.head_dim
    }

    /// Every entry's key, in entry order, strided by `head_dim`.
    pub fn keys(&self) -> &[f32] {
        &self.keys
    }

    /// Every entry's value, laid out like [`keys`](Self::keys).
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Appends an entry.  Full buffers grow by doubling but never past room
    /// for `limit` entries, so a head that never holds more than `limit`
    /// keeps no doubling slack beyond it (`usize::MAX` where nothing is
    /// evicted).
    ///
    /// # Panics
    ///
    /// Panics if `key` or `value` length differs from the arena stride.
    pub(crate) fn push(&mut self, key: &[f32], value: &[f32], limit: usize) {
        assert_eq!(key.len(), self.head_dim, "key length must match stride");
        assert_eq!(value.len(), self.head_dim, "value length must match stride");
        if self.keys.len() == self.keys.capacity() {
            let len = self.len();
            let entries = (2 * len).max(4).min(limit).max(len + 1);
            self.keys.reserve_exact((entries - len) * self.head_dim);
            self.values.reserve_exact((entries - len) * self.head_dim);
        }
        self.keys.extend_from_slice(key);
        self.values.extend_from_slice(value);
    }

    /// Borrows the newest entry's key and value vectors mutably.
    ///
    /// # Panics
    ///
    /// Panics if the arena is empty.
    pub(crate) fn last_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        let start = self
            .keys
            .len()
            .checked_sub(self.head_dim)
            .expect("arena is empty");
        (&mut self.keys[start..], &mut self.values[start..])
    }

    /// Removes entry `i`, preserving the order of the remaining entries.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub(crate) fn remove_at(&mut self, i: usize) {
        assert!(i < self.len(), "arena index out of bounds");
        let d = self.head_dim;
        let end = self.keys.len() - d;
        self.keys.copy_within((i + 1) * d.., i * d);
        self.keys.truncate(end);
        self.values.copy_within((i + 1) * d.., i * d);
        self.values.truncate(end);
    }

    /// Logical FP16 footprint of the *live* entries: `stride × live entries ×
    /// 2 vectors × 2 bytes`.  Deliberately independent of the buffers'
    /// retained capacity — retired slots cost nothing (the
    /// `CacheStats::bytes_fp16` contract).
    pub fn bytes_fp16(&self) -> usize {
        self.len() * 2 * self.head_dim * FP16_BYTES
    }
}

/// Slot-recycling storage for per-layer input vectors (`x`, length
/// `channels`), used by AERP's recomputation format.
///
/// A row is addressed by the slot [`push`](InputSlab::push) returns; the
/// slab keeps no token index, so which token a slot holds is the caller's
/// record.  Removing a row pushes its slot onto a free list instead of
/// freeing the backing memory, and the next push reuses the most recently
/// freed slot, so steady-state insert/evict churn performs no heap traffic
/// at all once the slab has warmed up to the policy budget.
#[derive(Debug, Clone)]
pub(crate) struct InputSlab {
    width: usize,
    data: Vec<f32>,
    free: Vec<usize>,
}

impl InputSlab {
    /// Creates an empty slab for vectors of length `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "slab width must be non-zero");
        InputSlab {
            width,
            data: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.data.len() / self.width - self.free.len()
    }

    /// Stores `x` in a free slot and returns the slot.
    ///
    /// A slot names one live row: distinct live rows hold distinct slots,
    /// and every slot is below the most rows the slab has held at once, so a
    /// caller can index a per-row table by it.
    ///
    /// # Panics
    ///
    /// Panics if `x` length differs from the slab width.
    pub fn push(&mut self, x: &[f32]) -> usize {
        assert_eq!(x.len(), self.width, "input length must match slab width");
        let slot = self.free.pop().unwrap_or_else(|| {
            let slot = self.data.len() / self.width;
            self.data.resize(self.data.len() + self.width, 0.0);
            slot
        });
        self.data[slot * self.width..(slot + 1) * self.width].copy_from_slice(x);
        slot
    }

    /// The length of a row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Every slot's row, `width` floats per slot: slot `s` holds
    /// `[s·width, (s+1)·width)`.  A freed slot still holds its last row.
    pub fn slab(&self) -> &[f32] {
        &self.data
    }

    /// Frees `slot` for reuse.  The caller removes each live slot once.
    pub fn remove(&mut self, slot: usize) {
        debug_assert!(slot < self.data.len() / self.width, "slot was never pushed");
        self.free.push(slot);
    }

    /// Logical FP16 footprint of the live entries (`width × live entries × 2
    /// bytes`), independent of recycled-slot capacity.
    pub fn bytes_fp16(&self) -> usize {
        self.len() * self.width * FP16_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena_with(entries: &[f32]) -> KvArena {
        let mut arena = KvArena::new(4);
        for &v in entries {
            arena.push(&[v; 4], &[-v; 4], usize::MAX);
        }
        arena
    }

    /// The first key element of each entry, in entry order.
    fn keys_of(arena: &KvArena) -> Vec<f32> {
        arena.keys().chunks_exact(4).map(|key| key[0]).collect()
    }

    /// Entry `i`'s key and value.
    fn entry(arena: &KvArena, i: usize) -> (&[f32], &[f32]) {
        (
            &arena.keys()[4 * i..4 * i + 4],
            &arena.values()[4 * i..4 * i + 4],
        )
    }

    /// The row `slab` stores in `slot`.
    fn row(slab: &InputSlab, slot: usize) -> &[f32] {
        &slab.slab()[slot * slab.width()..(slot + 1) * slab.width()]
    }

    #[test]
    fn push_and_borrow() {
        let arena = arena_with(&[1.0, 2.0, 3.0]);
        assert_eq!(arena.len(), 3);
        assert_eq!(keys_of(&arena), &[1.0, 2.0, 3.0]);
        assert_eq!(entry(&arena, 1).0, &[2.0; 4]);
        assert_eq!(entry(&arena, 2).1, &[-3.0; 4]);
    }

    #[test]
    fn remove_preserves_order() {
        let mut arena = arena_with(&[1.0, 2.0, 3.0, 4.0]);
        arena.remove_at(1);
        assert_eq!(keys_of(&arena), &[1.0, 3.0, 4.0]);
        assert_eq!(entry(&arena, 1).0, &[3.0; 4]);
        assert_eq!(entry(&arena, 2).1, &[-4.0; 4]);
        arena.remove_at(2);
        assert_eq!(keys_of(&arena), &[1.0, 3.0]);
    }

    #[test]
    fn bytes_reflect_live_entries_not_capacity() {
        let mut arena = arena_with(&[]);
        for _ in 0..100 {
            arena.push(&[0.5; 4], &[0.5; 4], usize::MAX);
        }
        while arena.len() > 4 {
            arena.remove_at(0);
        }
        // 4 entries × 2 vectors × 4 elements × 2 bytes, regardless of the
        // capacity the buffers retain from their 100-entry peak.
        assert_eq!(arena.bytes_fp16(), 4 * 2 * 4 * 2);
        assert!(arena.keys.capacity() >= 100 * 4);
    }

    #[test]
    fn push_grows_by_doubling_up_to_the_limit() {
        let mut arena = arena_with(&[]);
        let mut capacities = Vec::new();
        for _ in 0..11 {
            arena.push(&[0.5; 4], &[0.5; 4], 11);
            capacities.push(arena.keys.capacity() / 4);
        }
        assert_eq!(capacities, [4, 4, 4, 4, 8, 8, 8, 8, 11, 11, 11]);
        // Past the limit an entry still fits, one at a time.
        arena.push(&[0.5; 4], &[0.5; 4], 11);
        assert_eq!(arena.keys.capacity(), 12 * 4);
        assert_eq!(arena.values.capacity(), 12 * 4);
    }

    #[test]
    fn slab_recycles_slots() {
        let mut slab = InputSlab::new(3);
        assert_eq!(slab.push(&[1.0, 2.0, 3.0]), 0);
        assert_eq!(slab.push(&[4.0, 5.0, 6.0]), 1);
        assert_eq!(row(&slab, 0), &[1.0, 2.0, 3.0]);
        slab.remove(0);
        assert_eq!(slab.len(), 1);
        let backing = slab.data.len();
        // The next row reuses the freed slot; the backing store did not grow.
        assert_eq!(slab.push(&[7.0, 8.0, 9.0]), 0);
        assert_eq!(slab.data.len(), backing);
        assert_eq!(row(&slab, 0), &[7.0, 8.0, 9.0]);
        assert_eq!(row(&slab, 1), &[4.0, 5.0, 6.0]);
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.bytes_fp16(), 2 * 3 * 2);
    }

    #[test]
    #[should_panic(expected = "stride must be non-zero")]
    fn zero_stride_panics() {
        KvArena::new(0);
    }
}
