//! Roofline analysis of recomputation (Fig. 16a).
//!
//! Recomputing KV vectors trades DRAM traffic for MAC operations, i.e. it
//! moves the decode kernel to the right on a roofline plot (higher operational
//! intensity).  A moderate amount of recomputation lifts performance because
//! the kernel is deep in the memory-bound region; excessive recomputation
//! pushes it past the ridge point where the RSA becomes the bottleneck — the
//! "Over Recomp" curve of Fig. 16a.

use crate::systolic::SystolicArraySpec;
use kelle_edram::DramSpec;

/// A point on the roofline plot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RooflinePoint {
    /// Operational intensity in MACs per byte of off-chip traffic.
    pub intensity_macs_per_byte: f64,
    /// Attained performance in MACs per second.
    pub performance_macs_per_s: f64,
    /// Whether the point is compute-bound (true) or memory-bound (false).
    pub compute_bound: bool,
}

/// Roofline model built from the array's peak throughput and the DRAM
/// bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RooflineModel {
    /// Peak compute throughput in MACs per second.
    pub(crate) peak_macs_per_s: f64,
    /// Off-chip bandwidth in bytes per second.
    pub(crate) bandwidth_bytes_per_s: f64,
}

impl RooflineModel {
    /// Builds the roofline for a compute array over a DRAM channel.
    pub fn new(compute: &SystolicArraySpec, dram: &DramSpec) -> Self {
        RooflineModel {
            peak_macs_per_s: compute.peak_macs_per_s(),
            bandwidth_bytes_per_s: dram.bandwidth_bytes_per_s,
        }
    }

    /// Operational intensity at which the kernel transitions from memory-bound
    /// to compute-bound (the ridge point).
    pub(crate) fn ridge_intensity(&self) -> f64 {
        self.peak_macs_per_s / self.bandwidth_bytes_per_s
    }

    /// Attainable performance at a given operational intensity.
    pub(crate) fn attainable_macs_per_s(&self, intensity: f64) -> f64 {
        (intensity * self.bandwidth_bytes_per_s).min(self.peak_macs_per_s)
    }

    /// Evaluates a kernel described by its MACs and off-chip bytes.
    pub fn evaluate(&self, macs: u64, dram_bytes: u64) -> RooflinePoint {
        let intensity = if dram_bytes == 0 {
            f64::INFINITY
        } else {
            macs as f64 / dram_bytes as f64
        };
        let performance = self.attainable_macs_per_s(intensity.min(1e12));
        RooflinePoint {
            intensity_macs_per_byte: intensity,
            performance_macs_per_s: performance,
            compute_bound: intensity >= self.ridge_intensity(),
        }
    }

    /// Evaluates the decode kernel under a recomputation setting: a fraction
    /// `recompute_fraction` of the KV working set is recomputed (removing its
    /// DRAM traffic but adding `macs_per_recomputed_byte` MACs per byte
    /// saved).
    pub fn evaluate_recompute(
        &self,
        base_macs: u64,
        base_dram_bytes: u64,
        recompute_fraction: f64,
        macs_per_recomputed_byte: f64,
    ) -> RooflinePoint {
        let saved_bytes = (base_dram_bytes as f64 * recompute_fraction.clamp(0.0, 1.0)) as u64;
        let extra_macs = (saved_bytes as f64 * macs_per_recomputed_byte) as u64;
        self.evaluate(base_macs + extra_macs, base_dram_bytes - saved_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> RooflineModel {
        RooflineModel::new(&SystolicArraySpec::kelle_32x32(), &DramSpec::lpddr4_16gb())
    }

    #[test]
    fn ridge_point_is_peak_over_bandwidth() {
        let m = model();
        assert!((m.ridge_intensity() - m.peak_macs_per_s / 64.0e9).abs() < 1e-6);
    }

    #[test]
    fn decode_kernel_is_memory_bound_without_recompute() {
        let m = model();
        // Decode: ~7e9 MACs per step vs ~7 GB traffic -> intensity ~1.
        let p = m.evaluate(7_000_000_000, 7_000_000_000);
        assert!(!p.compute_bound);
        assert!(p.performance_macs_per_s < m.peak_macs_per_s);
    }

    #[test]
    fn moderate_recompute_improves_performance() {
        let m = model();
        let base = m.evaluate(7_000_000_000, 7_000_000_000);
        let recomp = m.evaluate_recompute(7_000_000_000, 7_000_000_000, 0.3, 2.0);
        assert!(recomp.performance_macs_per_s > base.performance_macs_per_s);
    }

    #[test]
    fn excessive_recompute_becomes_compute_bound() {
        let m = model();
        let over = m.evaluate_recompute(7_000_000_000, 7_000_000_000, 0.99, 600.0);
        assert!(over.compute_bound);
        // Performance saturates at the peak; it cannot exceed it.
        assert!(over.performance_macs_per_s <= m.peak_macs_per_s * 1.0001);
    }

    #[test]
    fn zero_traffic_is_compute_bound() {
        let m = model();
        let p = m.evaluate(1_000_000, 0);
        assert!(p.compute_bound);
        assert_eq!(p.performance_macs_per_s, m.peak_macs_per_s);
    }
}
