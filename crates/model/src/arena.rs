//! Contiguous arena storage backing the KV-cache policies.
//!
//! The original storage layer kept every cached token as a pair of boxed
//! `Vec<f32>`s inside per-token structs, so each decode step chased pointers
//! all over the heap and every read materialized fresh clones.  The arenas in
//! this module are the replacement: one flat `f32` buffer per `(layer, head)`
//! strided by `head_dim` for KV pairs ([`KvArena`]), and one slot-recycling
//! slab per layer for AERP's recompute-format input vectors ([`InputSlab`]).
//!
//! The allocation discipline is:
//!
//! * **insert** appends to the arena tail (amortized O(1); the buffers warm
//!   up to the policy budget and then stop growing);
//! * **evict** removes the entry while *preserving order* (`copy_within` +
//!   truncate), so entry iteration order — and therefore the floating-point
//!   accumulation order of attention — is identical to the historical
//!   per-token-`Vec` storage; and
//! * **read** hands out borrowed `&[f32]` slices straight into the arena; the
//!   steady-state decode path never clones a key or value.
//!
//! Eq. 1/2 are order-invariant (§2.2), so *correctness* does not depend on
//! the order-preserving eviction; bitwise reproducibility of token streams
//! (the pinned golden fixtures, and the historical entry order) does, which
//! is why the arenas do not use `swap_remove`.
//!
//! # Copy-on-evict sharing
//!
//! Cross-session prefix sharing (the `kelle::prefix` subsystem) hands many
//! sessions the *same* physical KV storage for a common prompt prefix.  An
//! arena can be opened over a refcounted base ([`SharedKv`], an
//! `Arc<ArenaGrid>` published by the prefix store): while the owning policy
//! replays the shared prefix, each [`push`](KvArena::push) whose token and
//! payload are **bit-identical** to the next base entry *adopts* it — the
//! entry is served by reference out of the shared grid, no bytes are copied.
//! The first divergence (a differing payload, e.g. a quantizing policy)
//! simply ends adoption and starts the private tail; an **eviction inside
//! the adopted region privatizes** the arena first (the shared data is
//! copied into the private buffers and the base reference dropped), so the
//! shared copy is immutable for its whole lifetime and every other session
//! keeps reading it untouched.  Sessions that never evict the prefix (the
//! `full` policy, or budgeted policies whose budget covers it) read the
//! shared copy zero-copy forever.

use crate::cache::TokenId;
use crate::hash::FastHashMap;
use std::sync::Arc;

/// Bytes per stored element under the logical FP16 storage format the cache
/// statistics report.
pub const FP16_BYTES: usize = 2;

/// A refcounted, read-only KV base published for cross-session sharing: the
/// per-`(layer, head)` arenas of one prompt prefix, plus the dimensions a
/// backend needs to pre-create its own arenas over them.
///
/// Produced by the prefix-publication machinery (`kelle_model::segment`) and
/// consumed by [`KvCacheBackend::attach_shared_prefix`](crate::cache::KvCacheBackend::attach_shared_prefix)
/// implementations, which open their arenas over the base via
/// [`ArenaGrid::attach_base`].
#[derive(Debug, Clone)]
pub struct SharedKv {
    /// The shared per-`(layer, head)` arenas, in prefix insertion order.
    pub grid: Arc<ArenaGrid>,
    /// Decoder layers covered by the base.
    pub layers: usize,
    /// Attention heads per layer.
    pub heads: usize,
    /// Per-head vector length (the arena stride).
    pub head_dim: usize,
    /// Number of prefix tokens stored per `(layer, head)`.
    pub tokens: usize,
}

/// A live view into a [`SharedKv`] base held by one arena: which shared
/// `(layer, head)` arena it aliases and how many of its entries have been
/// adopted so far.
#[derive(Debug, Clone)]
struct ArenaBase {
    grid: Arc<ArenaGrid>,
    layer: usize,
    head: usize,
    /// Entries `0..adopted` of the shared arena are served by reference.
    adopted: usize,
}

impl ArenaBase {
    fn arena(&self) -> &KvArena {
        self.grid
            .get(self.layer, self.head)
            .expect("shared base grid holds the attached (layer, head)")
    }
}

/// Bitwise slice equality (`f32::to_bits`), the adoption criterion: adopting
/// a shared entry must be observationally identical to storing the pushed
/// payload privately.
fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Contiguous KV storage for one `(layer, head)`: a token list plus two flat
/// `f32` buffers (keys and values) strided by `head_dim`.
///
/// Entry `i` owns `keys[i*head_dim .. (i+1)*head_dim]` and the corresponding
/// `values` range; `tokens[i]` is its sequence position.  Entries stay in
/// insertion order across evictions (see the module docs).
///
/// An arena may additionally alias a shared prefix base (see the
/// [module docs](self) on copy-on-evict sharing): logical entries are then
/// the adopted base entries followed by the private tail, and all accessors
/// dispatch transparently.
#[derive(Debug, Clone, Default)]
pub struct KvArena {
    head_dim: usize,
    tokens: Vec<TokenId>,
    keys: Vec<f32>,
    values: Vec<f32>,
    base: Option<ArenaBase>,
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
            tokens: Vec::new(),
            keys: Vec::new(),
            values: Vec::new(),
            base: None,
        }
    }

    /// The per-entry stride (elements per key or value vector).
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Number of adopted shared entries (zero for a purely private arena).
    fn base_len(&self) -> usize {
        self.base.as_ref().map_or(0, |b| b.adopted)
    }

    /// Number of live entries (adopted shared entries + private tail).
    pub fn len(&self) -> usize {
        self.base_len() + self.tokens.len()
    }

    /// Whether the arena holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over the stored token ids, in entry order.
    pub fn iter_tokens(&self) -> impl Iterator<Item = TokenId> + '_ {
        (0..self.len()).map(|i| self.token_at(i))
    }

    /// The first stored token id, if any.
    pub fn first_token(&self) -> Option<TokenId> {
        if self.is_empty() {
            None
        } else {
            Some(self.token_at(0))
        }
    }

    /// The index of the first entry whose token satisfies `pred`, if any.
    pub fn position_where(&self, mut pred: impl FnMut(TokenId) -> bool) -> Option<usize> {
        (0..self.len()).find(|&i| pred(self.token_at(i)))
    }

    /// The token id of entry `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn token_at(&self, i: usize) -> TokenId {
        let shared = self.base_len();
        if i < shared {
            self.base.as_ref().expect("base checked").arena().tokens[i]
        } else {
            self.tokens[i - shared]
        }
    }

    /// Borrows the key vector of entry `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn key(&self, i: usize) -> &[f32] {
        let shared = self.base_len();
        let d = self.head_dim;
        if i < shared {
            let arena = self.base.as_ref().expect("base checked").arena();
            &arena.keys[i * d..(i + 1) * d]
        } else {
            let i = i - shared;
            &self.keys[i * d..(i + 1) * d]
        }
    }

    /// Borrows the value vector of entry `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn value(&self, i: usize) -> &[f32] {
        let shared = self.base_len();
        let d = self.head_dim;
        if i < shared {
            let arena = self.base.as_ref().expect("base checked").arena();
            &arena.values[i * d..(i + 1) * d]
        } else {
            let i = i - shared;
            &self.values[i * d..(i + 1) * d]
        }
    }

    /// Opens this (empty) arena over a shared prefix base, enabling adoption.
    ///
    /// # Panics
    ///
    /// Panics if the arena already holds entries or a base, or if the base's
    /// `(layer, head)` arena has a different stride.
    pub fn set_base(&mut self, shared: &SharedKv, layer: usize, head: usize) {
        assert!(
            self.tokens.is_empty() && self.base.is_none(),
            "a shared base can only be attached to an empty arena"
        );
        let arena = shared
            .grid
            .get(layer, head)
            .expect("shared base must hold the attached (layer, head)");
        assert_eq!(arena.head_dim, self.head_dim, "base stride must match");
        self.base = Some(ArenaBase {
            grid: Arc::clone(&shared.grid),
            layer,
            head,
            adopted: 0,
        });
    }

    /// Whether any entries are currently served from a shared base.
    pub fn is_shared(&self) -> bool {
        self.base_len() > 0
    }

    /// Copies the adopted shared entries into the private buffers and drops
    /// the base reference.  Idempotent; the logical entry sequence is
    /// unchanged.
    fn privatize(&mut self) {
        let Some(base) = self.base.take() else {
            return;
        };
        if base.adopted == 0 {
            return;
        }
        let shared = base.arena();
        let d = self.head_dim;
        let n = base.adopted;
        let mut tokens = Vec::with_capacity(n + self.tokens.len());
        tokens.extend_from_slice(&shared.tokens[..n]);
        tokens.extend_from_slice(&self.tokens);
        let mut keys = Vec::with_capacity((n + self.tokens.len()) * d);
        keys.extend_from_slice(&shared.keys[..n * d]);
        keys.extend_from_slice(&self.keys);
        let mut values = Vec::with_capacity((n + self.tokens.len()) * d);
        values.extend_from_slice(&shared.values[..n * d]);
        values.extend_from_slice(&self.values);
        self.tokens = tokens;
        self.keys = keys;
        self.values = values;
    }

    /// Appends an entry.
    ///
    /// With a shared base attached and the private tail still empty, a push
    /// whose token and payload are bit-identical to the next base entry
    /// *adopts* it instead of copying (see the [module docs](self)); the
    /// first non-matching push ends adoption and starts the private tail.
    ///
    /// # Panics
    ///
    /// Panics if `key` or `value` length differs from the arena stride.
    pub fn push(&mut self, token: TokenId, key: &[f32], value: &[f32]) {
        assert_eq!(key.len(), self.head_dim, "key length must match stride");
        assert_eq!(value.len(), self.head_dim, "value length must match stride");
        if self.tokens.is_empty() {
            if let Some(base) = self.base.as_ref() {
                let arena = base.arena();
                let i = base.adopted;
                let d = self.head_dim;
                if i < arena.tokens.len()
                    && arena.tokens[i] == token
                    && bits_eq(&arena.keys[i * d..(i + 1) * d], key)
                    && bits_eq(&arena.values[i * d..(i + 1) * d], value)
                {
                    self.base.as_mut().expect("base checked").adopted += 1;
                    return;
                }
            }
        }
        self.tokens.push(token);
        self.keys.extend_from_slice(key);
        self.values.extend_from_slice(value);
    }

    /// The entry index currently holding `token`, if present.
    pub fn position(&self, token: TokenId) -> Option<usize> {
        self.position_where(|t| t == token)
    }

    /// Removes entry `i`, preserving the order of the remaining entries.
    ///
    /// Removing an entry inside the adopted shared region first privatizes
    /// the arena (copy-on-evict): the shared copy is never mutated.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn remove_at(&mut self, i: usize) {
        assert!(i < self.len(), "arena index out of bounds");
        let shared = self.base_len();
        let i = if i < shared {
            self.privatize();
            i
        } else {
            i - shared
        };
        let n = self.tokens.len();
        self.tokens.remove(i);
        let d = self.head_dim;
        self.keys.copy_within((i + 1) * d.., i * d);
        self.keys.truncate((n - 1) * d);
        self.values.copy_within((i + 1) * d.., i * d);
        self.values.truncate((n - 1) * d);
    }

    /// Removes the entry holding `token`, if present.  Returns whether an
    /// entry was removed.
    pub fn remove_token(&mut self, token: TokenId) -> bool {
        match self.position(token) {
            Some(i) => {
                self.remove_at(i);
                true
            }
            None => false,
        }
    }

    /// Drops all entries (private capacity is retained for reuse; a shared
    /// base reference is released).
    pub fn clear(&mut self) {
        self.base = None;
        self.tokens.clear();
        self.keys.clear();
        self.values.clear();
    }

    /// Logical FP16 footprint of the *live* entries: `stride × live entries ×
    /// 2 vectors × 2 bytes`.  Deliberately independent of the buffers'
    /// retained capacity — retired slots cost nothing (the
    /// `CacheStats::bytes_fp16` contract).  Adopted shared entries are
    /// included; use [`shared_bytes_fp16`](KvArena::shared_bytes_fp16) /
    /// [`private_bytes_fp16`](KvArena::private_bytes_fp16) for the split.
    pub fn bytes_fp16(&self) -> usize {
        self.len() * 2 * self.head_dim * FP16_BYTES
    }

    /// FP16 footprint of the adopted shared entries (counted by every
    /// attached session; the dedup accounting happens at the ledger level,
    /// which charges the published copy once).
    pub fn shared_bytes_fp16(&self) -> usize {
        self.base_len() * 2 * self.head_dim * FP16_BYTES
    }

    /// FP16 footprint of the private tail entries.
    pub fn private_bytes_fp16(&self) -> usize {
        self.tokens.len() * 2 * self.head_dim * FP16_BYTES
    }
}

/// A keyed collection of [`KvArena`]s, one per `(layer, head)`, with lazy
/// creation at a fixed stride.  Thin convenience wrapper shared by the cache
/// policies.
#[derive(Debug, Clone, Default)]
pub struct ArenaGrid {
    arenas: FastHashMap<(usize, usize), KvArena>,
}

impl ArenaGrid {
    /// Creates an empty grid.
    pub fn new() -> Self {
        ArenaGrid::default()
    }

    /// The arena for `(layer, head)`, if any entries were ever inserted.
    pub fn get(&self, layer: usize, head: usize) -> Option<&KvArena> {
        self.arenas.get(&(layer, head))
    }

    /// Mutable access to the arena for `(layer, head)`, if present.
    pub fn get_mut(&mut self, layer: usize, head: usize) -> Option<&mut KvArena> {
        self.arenas.get_mut(&(layer, head))
    }

    /// The arena for `(layer, head)`, created at `head_dim` stride on first
    /// use.
    pub fn get_or_create(&mut self, layer: usize, head: usize, head_dim: usize) -> &mut KvArena {
        self.arenas
            .entry((layer, head))
            .or_insert_with(|| KvArena::new(head_dim))
    }

    /// Iterates over all arenas.
    pub fn iter(&self) -> impl Iterator<Item = (&(usize, usize), &KvArena)> {
        self.arenas.iter()
    }

    /// The `(layer, head)` keys present in the grid.
    pub fn keys(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.arenas.keys().copied()
    }

    /// Total live entries across all arenas.
    pub fn total_entries(&self) -> usize {
        self.arenas.values().map(KvArena::len).sum()
    }

    /// Total logical FP16 footprint across all arenas (live entries only).
    pub fn bytes_fp16(&self) -> usize {
        self.arenas.values().map(KvArena::bytes_fp16).sum()
    }

    /// FP16 footprint currently served from shared bases across all arenas.
    pub fn shared_bytes_fp16(&self) -> usize {
        self.arenas.values().map(KvArena::shared_bytes_fp16).sum()
    }

    /// FP16 footprint of privately stored entries across all arenas.
    pub fn private_bytes_fp16(&self) -> usize {
        self.arenas.values().map(KvArena::private_bytes_fp16).sum()
    }

    /// Opens this grid over a shared prefix base: for every `(layer, head)`
    /// the base covers, an empty arena is created (at the base stride) and
    /// attached, so the upcoming prefix replay adopts the shared entries
    /// zero-copy.
    ///
    /// # Panics
    ///
    /// Panics if any covered arena already holds entries (sharing can only be
    /// attached to a fresh cache).
    pub fn attach_base(&mut self, shared: &SharedKv) {
        for (layer, head) in shared.grid.keys() {
            let stride = shared
                .grid
                .get(layer, head)
                .expect("key just listed")
                .head_dim();
            self.get_or_create(layer, head, stride)
                .set_base(shared, layer, head);
        }
    }
}

/// Slot-recycling storage for per-layer input vectors (`x`, length
/// `channels`), used by AERP's recomputation format.
///
/// Removing a token pushes its slot onto a free list instead of freeing the
/// backing memory, so steady-state insert/evict churn performs no heap
/// traffic at all once the slab has warmed up to the policy budget.
#[derive(Debug, Clone, Default)]
pub struct InputSlab {
    width: usize,
    data: Vec<f32>,
    index: FastHashMap<TokenId, usize>,
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
            index: FastHashMap::default(),
            free: Vec::new(),
        }
    }

    /// The vector length the slab stores.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the slab holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether `token` is stored.
    pub fn contains(&self, token: TokenId) -> bool {
        self.index.contains_key(&token)
    }

    /// Stores (or overwrites) the vector for `token`.
    ///
    /// # Panics
    ///
    /// Panics if `x` length differs from the slab width.
    pub fn insert(&mut self, token: TokenId, x: &[f32]) {
        assert_eq!(x.len(), self.width, "input length must match slab width");
        let slot = match self.index.get(&token) {
            Some(&slot) => slot,
            None => {
                let slot = self.free.pop().unwrap_or_else(|| {
                    let slot = self.data.len() / self.width;
                    self.data.resize(self.data.len() + self.width, 0.0);
                    slot
                });
                self.index.insert(token, slot);
                slot
            }
        };
        self.data[slot * self.width..(slot + 1) * self.width].copy_from_slice(x);
    }

    /// Borrows the vector stored for `token`, if present.
    pub fn get(&self, token: TokenId) -> Option<&[f32]> {
        self.index
            .get(&token)
            .map(|&slot| &self.data[slot * self.width..(slot + 1) * self.width])
    }

    /// Removes `token`, recycling its slot.  Returns whether it was present.
    pub fn remove(&mut self, token: TokenId) -> bool {
        match self.index.remove(&token) {
            Some(slot) => {
                self.free.push(slot);
                true
            }
            None => false,
        }
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

    fn arena_with(entries: &[(TokenId, f32)]) -> KvArena {
        let mut arena = KvArena::new(4);
        for &(t, v) in entries {
            arena.push(t, &[v; 4], &[-v; 4]);
        }
        arena
    }

    fn tokens_of(arena: &KvArena) -> Vec<TokenId> {
        arena.iter_tokens().collect()
    }

    /// A shared base holding `entries` at (layer 0, head 0).
    fn shared_base(entries: &[(TokenId, f32)]) -> SharedKv {
        let mut grid = ArenaGrid::new();
        for &(t, v) in entries {
            grid.get_or_create(0, 0, 4).push(t, &[v; 4], &[-v; 4]);
        }
        SharedKv {
            grid: Arc::new(grid),
            layers: 1,
            heads: 1,
            head_dim: 4,
            tokens: entries.len(),
        }
    }

    #[test]
    fn push_and_borrow() {
        let arena = arena_with(&[(0, 1.0), (1, 2.0), (2, 3.0)]);
        assert_eq!(arena.len(), 3);
        assert_eq!(tokens_of(&arena), &[0, 1, 2]);
        assert_eq!(arena.key(1), &[2.0; 4]);
        assert_eq!(arena.value(2), &[-3.0; 4]);
    }

    #[test]
    fn remove_preserves_order() {
        let mut arena = arena_with(&[(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)]);
        arena.remove_at(1);
        assert_eq!(tokens_of(&arena), &[0, 2, 3]);
        assert_eq!(arena.key(1), &[3.0; 4]);
        assert_eq!(arena.value(2), &[-4.0; 4]);
        assert!(arena.remove_token(3));
        assert!(!arena.remove_token(99));
        assert_eq!(tokens_of(&arena), &[0, 2]);
    }

    #[test]
    fn adoption_serves_shared_entries_by_reference() {
        let shared = shared_base(&[(0, 1.0), (1, 2.0), (2, 3.0)]);
        let mut arena = KvArena::new(4);
        arena.set_base(&shared, 0, 0);
        // Replaying identical pushes adopts instead of copying.
        for &(t, v) in &[(0usize, 1.0f32), (1, 2.0), (2, 3.0)] {
            arena.push(t, &[v; 4], &[-v; 4]);
        }
        assert_eq!(arena.len(), 3);
        assert!(arena.is_shared());
        assert_eq!(arena.shared_bytes_fp16(), 3 * 2 * 4 * 2);
        assert_eq!(arena.private_bytes_fp16(), 0);
        // Reads alias the shared grid.
        let base_key = shared.grid.get(0, 0).unwrap().key(1).as_ptr();
        assert_eq!(arena.key(1).as_ptr(), base_key);
        // Fresh pushes after the base is exhausted go to the private tail
        // without ending the sharing.
        arena.push(3, &[9.0; 4], &[-9.0; 4]);
        assert_eq!(tokens_of(&arena), &[0, 1, 2, 3]);
        assert!(arena.is_shared());
        assert_eq!(arena.private_bytes_fp16(), 2 * 4 * 2);
        assert_eq!(
            arena.bytes_fp16(),
            arena.shared_bytes_fp16() + arena.private_bytes_fp16()
        );
    }

    #[test]
    fn diverging_push_ends_adoption_without_copying() {
        let shared = shared_base(&[(0, 1.0), (1, 2.0)]);
        let mut arena = KvArena::new(4);
        arena.set_base(&shared, 0, 0);
        arena.push(0, &[1.0; 4], &[-1.0; 4]);
        // Same token, different payload (e.g. a quantizing policy): the push
        // is stored privately and adoption stops at one entry.
        arena.push(1, &[2.5; 4], &[-2.0; 4]);
        assert_eq!(tokens_of(&arena), &[0, 1]);
        assert_eq!(arena.shared_bytes_fp16(), 2 * 4 * 2);
        assert_eq!(arena.key(1), &[2.5; 4]);
    }

    #[test]
    fn eviction_inside_shared_region_privatizes() {
        let shared = shared_base(&[(0, 1.0), (1, 2.0), (2, 3.0)]);
        let mut arena = KvArena::new(4);
        arena.set_base(&shared, 0, 0);
        for &(t, v) in &[(0usize, 1.0f32), (1, 2.0), (2, 3.0)] {
            arena.push(t, &[v; 4], &[-v; 4]);
        }
        arena.push(3, &[4.0; 4], &[-4.0; 4]);
        // Copy-on-evict: removing a shared entry privatizes first.
        assert!(arena.remove_token(1));
        assert!(!arena.is_shared());
        assert_eq!(arena.shared_bytes_fp16(), 0);
        assert_eq!(tokens_of(&arena), &[0, 2, 3]);
        assert_eq!(arena.key(1), &[3.0; 4]);
        assert_eq!(arena.value(2), &[-4.0; 4]);
        // The shared copy itself is untouched.
        assert_eq!(shared.grid.get(0, 0).unwrap().len(), 3);
        assert_eq!(shared.grid.get(0, 0).unwrap().key(1), &[2.0; 4]);
    }

    #[test]
    fn tail_eviction_keeps_sharing() {
        let shared = shared_base(&[(0, 1.0), (1, 2.0)]);
        let mut arena = KvArena::new(4);
        arena.set_base(&shared, 0, 0);
        arena.push(0, &[1.0; 4], &[-1.0; 4]);
        arena.push(1, &[2.0; 4], &[-2.0; 4]);
        arena.push(5, &[5.0; 4], &[-5.0; 4]);
        arena.push(6, &[6.0; 4], &[-6.0; 4]);
        // Evicting from the private tail never touches the shared region.
        assert!(arena.remove_token(5));
        assert!(arena.is_shared());
        assert_eq!(tokens_of(&arena), &[0, 1, 6]);
        assert_eq!(arena.shared_bytes_fp16(), 2 * 2 * 4 * 2);
    }

    #[test]
    fn clear_releases_base() {
        let shared = shared_base(&[(0, 1.0)]);
        let mut arena = KvArena::new(4);
        arena.set_base(&shared, 0, 0);
        arena.push(0, &[1.0; 4], &[-1.0; 4]);
        assert_eq!(Arc::strong_count(&shared.grid), 2);
        arena.clear();
        assert_eq!(Arc::strong_count(&shared.grid), 1);
        assert!(arena.is_empty());
    }

    #[test]
    fn grid_attach_base_covers_all_keys() {
        let mut base_grid = ArenaGrid::new();
        base_grid
            .get_or_create(0, 0, 4)
            .push(0, &[1.0; 4], &[2.0; 4]);
        base_grid
            .get_or_create(1, 1, 4)
            .push(0, &[3.0; 4], &[4.0; 4]);
        let shared = SharedKv {
            grid: Arc::new(base_grid),
            layers: 2,
            heads: 2,
            head_dim: 4,
            tokens: 1,
        };
        let mut grid = ArenaGrid::new();
        grid.attach_base(&shared);
        grid.get_mut(0, 0).unwrap().push(0, &[1.0; 4], &[2.0; 4]);
        grid.get_mut(1, 1).unwrap().push(0, &[3.0; 4], &[4.0; 4]);
        assert_eq!(grid.shared_bytes_fp16(), 2 * 2 * 4 * 2);
        assert_eq!(grid.private_bytes_fp16(), 0);
        assert_eq!(grid.total_entries(), 2);
    }

    #[test]
    fn bytes_reflect_live_entries_not_capacity() {
        let mut arena = arena_with(&[]);
        for t in 0..100 {
            arena.push(t, &[0.5; 4], &[0.5; 4]);
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
    fn grid_lazily_creates() {
        let mut grid = ArenaGrid::new();
        assert!(grid.get(0, 0).is_none());
        grid.get_or_create(0, 0, 4).push(7, &[1.0; 4], &[2.0; 4]);
        assert_eq!(grid.get(0, 0).unwrap().len(), 1);
        assert_eq!(grid.total_entries(), 1);
        assert_eq!(grid.bytes_fp16(), 2 * 4 * 2);
    }

    #[test]
    fn slab_recycles_slots() {
        let mut slab = InputSlab::new(3);
        slab.insert(0, &[1.0, 2.0, 3.0]);
        slab.insert(1, &[4.0, 5.0, 6.0]);
        assert_eq!(slab.get(0), Some(&[1.0, 2.0, 3.0][..]));
        assert!(slab.remove(0));
        assert!(!slab.remove(0));
        let backing = slab.data.len();
        slab.insert(2, &[7.0, 8.0, 9.0]);
        // Token 2 reused token 0's slot; the backing store did not grow.
        assert_eq!(slab.data.len(), backing);
        assert_eq!(slab.get(2), Some(&[7.0, 8.0, 9.0][..]));
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.bytes_fp16(), 2 * 3 * 2);
    }

    #[test]
    fn slab_overwrite_keeps_one_slot() {
        let mut slab = InputSlab::new(2);
        slab.insert(5, &[1.0, 1.0]);
        slab.insert(5, &[2.0, 2.0]);
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.get(5), Some(&[2.0, 2.0][..]));
    }

    #[test]
    #[should_panic(expected = "stride must be non-zero")]
    fn zero_stride_panics() {
        KvArena::new(0);
    }
}
