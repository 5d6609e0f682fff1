//! QuaRot-style low-bit KV-cache quantization baseline.
//!
//! QuaRot (Ashkboos et al., cited as \[6\] in the paper) removes activation
//! outliers with Hadamard rotations and quantizes the KV cache to 4 bits.  The
//! paper uses it as the *quantization* point of comparison against eviction
//! policies, configured so that the storage budgets match (§7.1: eviction
//! baselines keep `N'` tokens at 16 bits, QuaRot keeps all tokens at 4 bits).
//!
//! The reproduction keeps the essential mechanism — per-vector symmetric
//! quantization of stored keys/values to a configurable bit width, with the
//! quantization error visible to every read — and omits the Hadamard rotation
//! (the surrogate model has no outlier structure to remove; the quantization
//! error itself is what drives the accuracy comparison).
//!
//! Storage-wise the backend keeps the *dequantized image* of every vector in
//! a contiguous [`KvArena`](kelle_model::KvArena) per `(layer, head)`: quantize-then-dequantize is
//! deterministic, so materializing it once at insert time yields bit-for-bit
//! the values the old dequantize-on-every-read implementation produced, while
//! reads become borrowed slices.  [`CacheStats::bytes_fp16`] still reports
//! the *quantized* footprint (`bytes_for(head_dim)` per stored vector) — the
//! quantity the eDRAM capacity model consumes.

use kelle_model::{ArenaGrid, CacheStats, EntryRef, KvCacheBackend, PayloadRef, TokenId};
use kelle_tensor::{QuantFormat, QuantizedVector};

/// A full-retention KV cache that stores keys and values in a low-bit format.
#[derive(Debug, Clone)]
pub struct QuaRotKvCache {
    format: QuantFormat,
    /// Dequantized image of the stored vectors, contiguous per (layer, head).
    store: ArenaGrid,
    insertions: u64,
}

impl QuaRotKvCache {
    /// Creates a cache storing KV vectors in the given format (the paper's
    /// baseline uses [`QuantFormat::Int4`]).
    pub fn new(format: QuantFormat) -> Self {
        QuaRotKvCache {
            format,
            store: ArenaGrid::new(),
            insertions: 0,
        }
    }

    /// Convenience constructor for the 4-bit configuration used in Table 2.
    pub fn int4() -> Self {
        Self::new(QuantFormat::Int4)
    }

    /// Convenience constructor for the 8-bit configuration used in Table 6
    /// (W4A8: activations and KV at 8 bits).
    pub fn int8() -> Self {
        Self::new(QuantFormat::Int8)
    }

    /// The storage format used for KV vectors.
    pub fn format(&self) -> QuantFormat {
        self.format
    }
}

impl KvCacheBackend for QuaRotKvCache {
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
            let qk = QuantizedVector::quantize(k, self.format)
                .expect("key vectors are non-empty by construction");
            let qv = QuantizedVector::quantize(v, self.format)
                .expect("value vectors are non-empty by construction");
            self.store.get_or_create(layer, head, head_dim).push(
                token,
                &qk.dequantize(),
                &qv.dequantize(),
            );
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
        for i in 0..arena.len() {
            let payload = PayloadRef::Kv {
                key: arena.key(i),
                value: arena.value(i),
            };
            visit(EntryRef::labelled(arena.token_at(i), payload, true));
        }
    }

    fn entry_count(&self, layer: usize, head: usize) -> usize {
        self.store.get(layer, head).map_or(0, |a| a.len())
    }

    fn observe_attention(&mut self, _layer: usize, _head: usize, _scores: &[(TokenId, f32)]) {
        // Quantization-only baseline: no score bookkeeping.
    }

    fn stats(&self) -> CacheStats {
        let kv_entries = self.store.total_entries();
        // Quantized footprint of the live entries: two vectors of `head_dim`
        // codes each, at the format's bit width.
        let bytes: usize = self
            .store
            .iter()
            .map(|(_, arena)| arena.len() * 2 * self.format.bytes_for(arena.head_dim()))
            .sum();
        CacheStats {
            kv_entries,
            insertions: self.insertions,
            bytes_fp16: bytes,
            ..CacheStats::default()
        }
    }

    fn name(&self) -> &'static str {
        match self.format {
            QuantFormat::Int4 => "quarot-kv4",
            QuantFormat::Int8 => "quarot-kv8",
            _ => "quarot-kv16",
        }
    }

    fn clone_box(&self) -> Box<dyn KvCacheBackend> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The key stored for the first entry of `(0, 0)`.
    fn first_key(cache: &QuaRotKvCache) -> Vec<f32> {
        let mut keys = Vec::new();
        cache.for_each_entry(0, 0, &mut |e| match e.payload {
            PayloadRef::Kv { key, .. } => keys.push(key.to_vec()),
            PayloadRef::Recompute { .. } => panic!("expected KV payload"),
        });
        keys.swap_remove(0)
    }

    fn insert_token(cache: &mut QuaRotKvCache, token: usize) {
        let key = vec![0.31 * (token as f32 + 1.0); 8];
        let value = vec![-0.17 * (token as f32 + 1.0); 8];
        cache.insert(0, token, &[0.0; 8], &key, &value, 8);
    }

    #[test]
    fn retains_all_tokens() {
        let mut cache = QuaRotKvCache::int4();
        for t in 0..20 {
            insert_token(&mut cache, t);
        }
        assert_eq!(cache.entry_count(0, 0), 20);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn dequantized_values_are_close_to_original() {
        let mut cache = QuaRotKvCache::int8();
        insert_token(&mut cache, 3);
        for k in first_key(&cache) {
            assert!((k - 0.31 * 4.0).abs() < 0.02);
        }
    }

    #[test]
    fn stored_image_matches_fresh_dequantization() {
        // The arena keeps dequantize(quantize(x)); a fresh round trip must
        // reproduce it bit for bit (determinism of the quantizer).
        let mut cache = QuaRotKvCache::int4();
        let key = vec![0.9, -0.4, 0.12, 0.7];
        let value = vec![-0.2, 0.33, 0.5, -0.9];
        cache.insert(0, 0, &[0.0; 4], &key, &value, 4);
        let fresh = QuantizedVector::quantize(&key, QuantFormat::Int4)
            .unwrap()
            .dequantize();
        let stored = first_key(&cache);
        assert_eq!(
            stored.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            fresh.iter().map(|f| f.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn int4_uses_quarter_the_storage_of_fp16() {
        let mut cache4 = QuaRotKvCache::int4();
        let mut cache16 = QuaRotKvCache::new(QuantFormat::Fp16);
        for t in 0..8 {
            insert_token(&mut cache4, t);
            insert_token(&mut cache16, t);
        }
        assert_eq!(cache4.stats().bytes_fp16 * 4, cache16.stats().bytes_fp16);
    }

    #[test]
    fn names_reflect_format() {
        assert_eq!(QuaRotKvCache::int4().name(), "quarot-kv4");
        assert_eq!(QuaRotKvCache::int8().name(), "quarot-kv8");
    }
}
