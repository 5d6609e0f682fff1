//! The Kelle scheduler and the baseline computation pattern (§6).
//!
//! The self-attention block of one decoding step loads three weight matrices
//! from the weight SRAM (`W_Q`, `W_K`, `W_V`), reads the cached K and V
//! vectors from the KV memory, and runs the matrix multiplications
//! `MM_Q/MM_K/MM_V/MM_qk/MM_v` plus a softmax.  The *baseline* pattern
//! executes these strictly in sequence (Fig. 12a), which both serialises the
//! two memory streams and keeps the intermediate activations (`X`, `Q`, `K`,
//! `V`) alive in eDRAM for a long time; the *Kelle* pattern (Fig. 12b)
//! overlaps the weight-SRAM and KV-eDRAM streams (they are separate physical
//! memories) and consumes K/V immediately, shrinking the total transient-data
//! lifetime from `6·T_SRAM + 4·T_eDRAM` (Eq. 7) to `4·T_SRAM + 1·T_eDRAM`
//! (Eq. 8).

/// Which computation pattern a platform uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Serial schedule of Fig. 12a.
    Baseline,
    /// Overlapped Kelle schedule of Fig. 12b.
    Kelle,
}

/// Per-step memory-stream timings used by the lifetime and overlap models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StepTiming {
    /// Time to load one projection weight matrix from the weight memory
    /// (`T_SRAM` in Eq. 6; for platforms that stream weights from DRAM this is
    /// the per-matrix share of the DRAM transfer).
    pub(crate) t_weight_s: f64,
    /// Time to read the cached KV vectors from the KV memory (`T_eDRAM`,
    /// Eq. 5).
    pub(crate) t_kv_s: f64,
}

impl SchedulerKind {
    /// Total transient-data lifetime of the step's activations (`X`, `Q`, `K`,
    /// `V`) in seconds — Eq. 7 for the baseline, Eq. 8 for Kelle.
    pub(crate) fn activation_lifetime_s(&self, timing: StepTiming) -> f64 {
        match self {
            SchedulerKind::Baseline => 6.0 * timing.t_weight_s + 4.0 * timing.t_kv_s,
            SchedulerKind::Kelle => 4.0 * timing.t_weight_s + timing.t_kv_s,
        }
    }

    /// Exposed memory-access time of one step: the baseline serialises the
    /// weight and KV streams, Kelle overlaps them on separate memories.
    pub(crate) fn memory_time_s(&self, total_weight_s: f64, total_kv_s: f64) -> f64 {
        match self {
            SchedulerKind::Baseline => total_weight_s + total_kv_s,
            SchedulerKind::Kelle => total_weight_s.max(total_kv_s),
        }
    }

    /// Fraction of compute time that can hide behind memory transfers.
    ///
    /// The baseline pattern of Fig. 12a runs loads and matrix multiplications
    /// back-to-back, so only a small amount of compute is hidden by the
    /// hardware's request pipelining; the Kelle pattern of Fig. 12b explicitly
    /// overlaps the weight stream, the KV stream and the dependent
    /// multiplications.
    pub(crate) fn compute_overlap(&self) -> f64 {
        match self {
            SchedulerKind::Baseline => 0.25,
            SchedulerKind::Kelle => 0.90,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifetime_equations_match_paper() {
        let timing = StepTiming {
            t_weight_s: 2.0,
            t_kv_s: 3.0,
        };
        // Eq. 7: 6*T_SRAM + 4*T_eDRAM.
        assert_eq!(SchedulerKind::Baseline.activation_lifetime_s(timing), 24.0);
        // Eq. 8: 4*T_SRAM + 1*T_eDRAM.
        assert_eq!(SchedulerKind::Kelle.activation_lifetime_s(timing), 11.0);
    }

    #[test]
    fn kelle_lifetime_is_never_longer() {
        for (w, k) in [(1.0, 1.0), (5.0, 0.1), (0.1, 5.0), (3.3, 2.2)] {
            let timing = StepTiming {
                t_weight_s: w,
                t_kv_s: k,
            };
            assert!(
                SchedulerKind::Kelle.activation_lifetime_s(timing)
                    <= SchedulerKind::Baseline.activation_lifetime_s(timing)
            );
        }
    }

    #[test]
    fn memory_overlap() {
        assert_eq!(SchedulerKind::Baseline.memory_time_s(4.0, 3.0), 7.0);
        assert_eq!(SchedulerKind::Kelle.memory_time_s(4.0, 3.0), 4.0);
    }

    #[test]
    fn overlap_fractions_ordered() {
        assert!(SchedulerKind::Kelle.compute_overlap() > SchedulerKind::Baseline.compute_overlap());
    }
}
