//! The reconfigurable systolic array (RSA, §5.2).
//!
//! The Kelle accelerator uses a 32×32 weight-stationary systolic array of
//! 8-bit MAC PEs clocked at 1 GHz (4.13 INT8 TOPS after accounting for
//! pipeline fill/drain), reconfigurable for in-place transposed matrix
//! multiplication (FAST-style).  The SRAM-baseline platform shrinks it to
//! 24×24 so that the total on-chip area matches Kelle (§8.1.1).
//!
//! The model exposes MAC throughput (with a utilisation term that captures the
//! poor efficiency of single-vector decode at small batch sizes), per-MAC
//! energy and array leakage; per-MAC energy for 8-bit PEs at the paper's 45 nm
//! node is set so that the full RSA at peak activity dissipates its reported
//! power share (17 % of 6.52 W ≈ 1.1 W at 2.05 TMAC/s → ≈ 0.54 pJ/MAC).

/// Dimensions and electrical characteristics of a systolic array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystolicArraySpec {
    /// Number of PE rows.
    pub(crate) rows: usize,
    /// Number of PE columns.
    pub(crate) cols: usize,
    /// Clock frequency in hertz.
    pub(crate) frequency_hz: f64,
    /// Energy per 8-bit MAC in joules.
    pub(crate) energy_per_mac_j: f64,
    /// Leakage/idle power of the array in watts.
    pub(crate) leakage_w: f64,
}

impl SystolicArraySpec {
    /// The Kelle accelerator's 32×32 array at 1 GHz.
    pub(crate) fn kelle_32x32() -> Self {
        SystolicArraySpec {
            rows: 32,
            cols: 32,
            frequency_hz: 1.0e9,
            energy_per_mac_j: 0.54e-12,
            leakage_w: 0.11,
        }
    }

    /// The area-matched 24×24 array used by the SRAM baselines (§8.1.1).
    pub(crate) fn baseline_24x24() -> Self {
        SystolicArraySpec {
            rows: 24,
            cols: 24,
            frequency_hz: 1.0e9,
            energy_per_mac_j: 0.54e-12,
            leakage_w: 0.062,
        }
    }

    /// Peak MAC throughput in MACs per second.
    pub(crate) fn peak_macs_per_s(&self) -> f64 {
        self.rows as f64 * self.cols as f64 * self.frequency_hz
    }

    /// Utilisation of the array for matrix multiplications with an effective
    /// batch/row dimension of `parallel_rows` (e.g. the batch size during
    /// decoding, or the number of context tokens during pre-fill).
    ///
    /// Weight-stationary arrays stream one input row per cycle; with fewer
    /// than `rows` independent rows in flight the array is under-utilised, and
    /// there is a fixed ~90 % ceiling from pipeline fill/drain (which also
    /// matches the 4.13 INT8 TOPS the paper reports for the 32×32 array).
    pub(crate) fn utilization(&self, parallel_rows: usize) -> f64 {
        let fill = (parallel_rows as f64 / self.rows as f64).min(1.0);
        0.905 * fill.max(1.0 / self.rows as f64)
    }

    /// Time in seconds to execute `macs` MAC operations with the given
    /// parallelism (paper Eq. 4 with the utilisation-adjusted throughput).
    pub(crate) fn matmul_time_s(&self, macs: u64, parallel_rows: usize) -> f64 {
        macs as f64 / (self.peak_macs_per_s() * self.utilization(parallel_rows))
    }

    /// Dynamic energy in joules to execute `macs` MAC operations.
    pub(crate) fn matmul_energy_j(&self, macs: u64) -> f64 {
        macs as f64 * self.energy_per_mac_j
    }

    /// Leakage energy over a window of `duration_s` seconds.
    pub(crate) fn leakage_energy_j(&self, duration_s: f64) -> f64 {
        self.leakage_w * duration_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kelle_array_hits_reported_tops() {
        let rsa = SystolicArraySpec::kelle_32x32();
        // 32x32 PEs at 1 GHz = 1.024 TMAC/s = 2.048 TOPS counting one MAC as
        // two ops.  (The paper quotes 4.13 INT8 TOPs for the same array, i.e.
        // it counts four ops per 8-bit MAC PE; the ratio-based results are
        // unaffected by the convention.)
        assert!((2.0 * rsa.peak_macs_per_s() * 1e-12 - 2.048).abs() < 0.1);
    }

    #[test]
    fn baseline_array_is_smaller() {
        let kelle = SystolicArraySpec::kelle_32x32();
        let baseline = SystolicArraySpec::baseline_24x24();
        assert!(baseline.peak_macs_per_s() < kelle.peak_macs_per_s());
    }

    #[test]
    fn utilization_grows_with_parallel_rows() {
        let rsa = SystolicArraySpec::kelle_32x32();
        assert!(rsa.utilization(1) < rsa.utilization(16));
        assert!(rsa.utilization(16) < rsa.utilization(32));
        assert!((rsa.utilization(32) - rsa.utilization(64)).abs() < 1e-9);
        assert!(rsa.utilization(64) <= 1.0);
    }

    #[test]
    fn matmul_time_scales_inversely_with_utilization() {
        let rsa = SystolicArraySpec::kelle_32x32();
        let macs = 1_000_000_000;
        assert!(rsa.matmul_time_s(macs, 1) > rsa.matmul_time_s(macs, 32));
    }

    #[test]
    fn energy_is_linear_in_macs() {
        let rsa = SystolicArraySpec::kelle_32x32();
        let e1 = rsa.matmul_energy_j(1_000_000);
        let e2 = rsa.matmul_energy_j(2_000_000);
        assert!((e2 - 2.0 * e1).abs() < 1e-15);
        assert!(rsa.leakage_energy_j(1.0) > 0.0);
    }
}
