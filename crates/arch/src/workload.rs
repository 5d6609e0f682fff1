//! Inference workload descriptions for the hardware model.
//!
//! §8 evaluates the accelerator on four task settings (context length, decode
//! length) with batch size 16: Lambada (128, 512), TriviaQA (512, 2048),
//! Qasper (1024, 5120) and PG19 (512, 8192), plus the long-input sweep of
//! Fig. 16b (inputs of 2K–16K tokens with 128–2K decode lengths).

/// A (context, decode, batch) workload point for the hardware model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InferenceWorkload {
    /// Human-readable task label.
    pub name: &'static str,
    /// Pre-fill (context) length in tokens.
    pub(crate) context_len: usize,
    /// Number of decoding steps.
    pub(crate) decode_len: usize,
    /// Batch size (sequences decoded together).
    pub(crate) batch: usize,
    /// Context tokens already resident in the KV cache when the request
    /// starts (session/prefix reuse).  Pre-fill work covers only the
    /// remaining `context_len - reused_context_len` new tokens; the decode
    /// phase still attends over the full `context_len`.
    pub(crate) reused_context_len: usize,
    /// On-chip KV residency granted to this workload, in bytes.  `None` means
    /// the workload gets the platform's whole KV memory to itself (the
    /// single-tenant assumption).  Under shared-capacity arbitration the
    /// scheduler sets this to the workload's share of the eDRAM; KV bytes
    /// beyond the share are charged at off-chip DRAM access cost instead of
    /// eDRAM cost.  The effective residency is always additionally capped by
    /// the physical KV memory capacity.
    pub(crate) kv_capacity_bytes: Option<u64>,
}

impl InferenceWorkload {
    /// Creates a workload point.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(name: &'static str, context_len: usize, decode_len: usize, batch: usize) -> Self {
        assert!(context_len > 0, "context length must be non-zero");
        assert!(decode_len > 0, "decode length must be non-zero");
        assert!(batch > 0, "batch size must be non-zero");
        InferenceWorkload {
            name,
            context_len,
            decode_len,
            batch,
            reused_context_len: 0,
            kv_capacity_bytes: None,
        }
    }

    /// Marks the first `reused` context tokens as already resident in the KV
    /// cache (builder style), so pre-fill is charged only for the remainder.
    ///
    /// # Panics
    ///
    /// Panics if `reused > context_len`.
    pub fn with_reused_context(mut self, reused: usize) -> Self {
        assert!(
            reused <= self.context_len,
            "reused context cannot exceed the context length"
        );
        self.reused_context_len = reused;
        self
    }

    /// Caps the on-chip KV residency granted to this workload (builder
    /// style).  `None` restores the single-tenant default of the whole KV
    /// memory.  See `InferenceWorkload::kv_capacity_bytes`.
    pub fn with_kv_capacity_bytes(mut self, bytes: Option<u64>) -> Self {
        self.kv_capacity_bytes = bytes;
        self
    }

    /// Lambada: context 128, decode 512, batch 16 (§8).
    pub fn lambada() -> Self {
        Self::new("LA", 128, 512, 16)
    }

    /// TriviaQA: context 512, decode 2048, batch 16 (§8).
    pub fn triviaqa() -> Self {
        Self::new("TQ", 512, 2048, 16)
    }

    /// Qasper: context 1024, decode 5120, batch 16 (§8).
    pub fn qasper() -> Self {
        Self::new("QA", 1024, 5120, 16)
    }

    /// PG19: context 512, decode 8192, batch 16 (§8).
    pub fn pg19() -> Self {
        Self::new("PG", 512, 8192, 16)
    }

    /// The four hardware-evaluation workloads of Fig. 13/14.
    pub fn evaluation_suite() -> Vec<InferenceWorkload> {
        vec![
            Self::lambada(),
            Self::triviaqa(),
            Self::qasper(),
            Self::pg19(),
        ]
    }

    /// A long-input point for the Fig. 16b sweep (`input`-`output` naming like
    /// "16K-128").
    pub fn long_input(context_len: usize, decode_len: usize) -> Self {
        Self::new("long-input", context_len, decode_len, 16)
    }

    /// Overrides the batch size (builder style).
    pub fn with_batch(mut self, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be non-zero");
        self.batch = batch;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_suite_matches_paper() {
        let suite = InferenceWorkload::evaluation_suite();
        assert_eq!(suite.len(), 4);
        assert_eq!(suite[0].context_len, 128);
        assert_eq!(suite[0].decode_len, 512);
        assert_eq!(suite[3].decode_len, 8192);
        assert!(suite.iter().all(|w| w.batch == 16));
    }

    #[test]
    fn with_batch_overrides() {
        let w = InferenceWorkload::pg19().with_batch(1);
        assert_eq!(w.batch, 1);
    }

    #[test]
    fn reused_context_reduces_prefill_work_only() {
        let w = InferenceWorkload::new("turn", 14, 4, 1).with_reused_context(12);
        assert_eq!(w.reused_context_len, 12);
        assert_eq!((w.context_len, w.decode_len), (14, 4));
        // Full reuse (a decode-only continuation) is allowed.
        let cont = InferenceWorkload::new("cont", 14, 4, 1).with_reused_context(14);
        assert_eq!(cont.reused_context_len, cont.context_len);
    }

    #[test]
    fn kv_capacity_cap_is_optional_and_composable() {
        let w = InferenceWorkload::pg19();
        assert_eq!(w.kv_capacity_bytes, None);
        let capped = w.with_kv_capacity_bytes(Some(1 << 20));
        assert_eq!(capped.kv_capacity_bytes, Some(1 << 20));
        assert_eq!(capped.with_kv_capacity_bytes(None).kv_capacity_bytes, None);
    }

    #[test]
    #[should_panic(expected = "reused context cannot exceed")]
    fn reused_context_beyond_context_panics() {
        InferenceWorkload::new("bad", 4, 4, 1).with_reused_context(5);
    }

    #[test]
    #[should_panic(expected = "batch size must be non-zero")]
    fn zero_batch_panics() {
        InferenceWorkload::new("x", 1, 1, 0);
    }
}
