//! The systolic evictor (SE, §5.3).
//!
//! AERP needs, on every decoding step, the accumulated importance score of
//! every cached token and the index of the minimum.  Kelle couples a thin
//! column of registers to the RSA so the minimum is found *while* the
//! attention scores stream out of the array, adding no latency to the LLM
//! execution.  Platforms without the SE (e.g. AERP running on the SRAM
//! baseline, or a GPU as discussed in §8.4.2) must run the minimum search and
//! score update as an extra serial pass over the cached tokens.
//!
//! §8.1.4 quantifies the unit: 0.06 mm² (0.6 % of on-chip area), 0.028 W
//! (0.4 % of on-chip power), and avoiding the serial search saves ~7 % latency
//! and ~5 % energy at the system level.

/// Cost/benefit model of the systolic evictor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystolicEvictor {
    /// Whether the unit is present in the platform.
    pub(crate) present: bool,
    /// Area of the unit in mm².
    pub(crate) area_mm2: f64,
    /// Power of the unit in watts.
    pub(crate) power_w: f64,
    /// Elements per second a host-side (non-systolic) minimum search can scan;
    /// used to cost the eviction pass on platforms *without* the SE.
    pub(crate) fallback_scan_rate_per_s: f64,
    /// Energy per scanned element of the fallback search in joules.
    pub(crate) fallback_energy_per_element_j: f64,
}

impl SystolicEvictor {
    /// The Kelle configuration (unit present).
    pub(crate) fn kelle_default() -> Self {
        SystolicEvictor {
            present: true,
            area_mm2: 0.06,
            power_w: 0.028,
            fallback_scan_rate_per_s: 1.0e9,
            // The serial pass must re-read every accumulated score from the
            // on-chip buffer and update it (~2 bytes in + 2 bytes out at SRAM
            // access energy) on top of the comparison itself.
            fallback_energy_per_element_j: 750.0e-12,
        }
    }

    /// A platform without the systolic evictor (eviction handled in a serial
    /// pass, e.g. the AEP/AERP+SRAM baselines).
    pub fn absent() -> Self {
        SystolicEvictor {
            present: false,
            ..Self::kelle_default()
        }
    }

    /// Extra latency per decoding step caused by the eviction bookkeeping,
    /// given the number of cached tokens scanned per head and the head count.
    ///
    /// With the SE present this is zero (fully overlapped with the RSA);
    /// without it the scan is a serial pass over `cached_tokens × heads`
    /// scores.
    pub(crate) fn eviction_latency_s(&self, cached_tokens: usize, heads: usize) -> f64 {
        if self.present {
            0.0
        } else {
            (cached_tokens * heads) as f64 / self.fallback_scan_rate_per_s
        }
    }

    /// Extra energy per decoding step caused by the eviction bookkeeping.
    ///
    /// With the SE present the unit draws its (small) power for the duration
    /// of the step; without it the serial scan pays per-element energy.
    pub(crate) fn eviction_energy_j(
        &self,
        cached_tokens: usize,
        heads: usize,
        step_time_s: f64,
    ) -> f64 {
        if self.present {
            self.power_w * step_time_s
        } else {
            (cached_tokens * heads) as f64 * self.fallback_energy_per_element_j
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn present_unit_adds_no_latency() {
        let se = SystolicEvictor::kelle_default();
        assert_eq!(se.eviction_latency_s(2048, 32), 0.0);
    }

    #[test]
    fn absent_unit_pays_serial_scan() {
        let se = SystolicEvictor::absent();
        let lat = se.eviction_latency_s(2048, 32);
        assert!(lat > 0.0);
        // 65k elements at 1 G/s ~ 66 us.
        assert!((lat - 65.536e-6).abs() < 1e-6);
    }

    #[test]
    fn energy_tradeoff() {
        let present = SystolicEvictor::kelle_default();
        let absent = SystolicEvictor::absent();
        let step = 1e-3;
        // For long contexts the serial scan costs more energy than the SE.
        let e_present = present.eviction_energy_j(4096, 32, step);
        let e_absent = absent.eviction_energy_j(4096, 32, step);
        assert!(e_absent > e_present);
    }

    #[test]
    fn reported_overheads() {
        let se = SystolicEvictor::kelle_default();
        assert!((se.area_mm2 - 0.06).abs() < 1e-9);
        assert!((se.power_w - 0.028).abs() < 1e-9);
    }
}
