//! eDRAM retention-failure model (Fig. 4).
//!
//! Per-cell retention times in gain-cell eDRAM follow a heavy-tailed
//! distribution across a die (threshold-voltage variation; Kong et al.,
//! cited as \[38\]).  The probability that a cell's stored bit decays before the
//! next refresh is the CDF of that distribution evaluated at the refresh
//! interval.  Fig. 4 of the paper plots this failure rate at 105 °C for the
//! 65 nm array; the curve spans ~1e-6 at tens of microseconds to ~1e-1 at
//! ~10 ms, with the markers 45 µs (guaranteed-safe interval), 784 µs, 1778 µs
//! and 9120 µs.
//!
//! [`RetentionModel`] fits that curve with a log-normal CDF whose parameters
//! are chosen so that the paper's operating points land on it:
//! `F(45 µs) ≈ 3e-6`, `F(1.05 ms) ≈ 2e-3` (the average retention-failure rate
//! quoted in §7.1), `F(9.1 ms) ≈ 4e-2`.

/// Log-normal retention-time distribution of an eDRAM array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetentionModel {
    /// Mean of `ln(retention time in µs)`.
    pub(crate) mu_ln_us: f64,
    /// Standard deviation of `ln(retention time in µs)`.
    pub(crate) sigma_ln: f64,
    /// Interval below which refresh guarantees no corruption (Table 1: 45 µs).
    pub(crate) safe_interval_us: f64,
}

impl Default for RetentionModel {
    fn default() -> Self {
        Self::table1_65nm_105c()
    }
}

impl RetentionModel {
    /// The 65 nm, 105 °C model fitted to Fig. 4.
    pub(crate) fn table1_65nm_105c() -> Self {
        RetentionModel {
            mu_ln_us: 12.47,
            sigma_ln: 1.92,
            safe_interval_us: 45.0,
        }
    }

    /// Probability that a cell refreshed every `interval_us` microseconds
    /// suffers a retention failure before its refresh (per refresh period).
    ///
    /// Intervals at or below the safe interval return 0.
    pub fn failure_rate(&self, interval_us: f64) -> f64 {
        if interval_us <= self.safe_interval_us {
            return 0.0;
        }
        let z = (interval_us.ln() - self.mu_ln_us) / self.sigma_ln;
        normal_cdf(z).clamp(0.0, 1.0)
    }
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation.
fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    // Abramowitz & Stegun 7.1.26, max error ~1.5e-7.
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn safe_interval_has_zero_failures() {
        let m = RetentionModel::default();
        assert_eq!(m.failure_rate(45.0), 0.0);
        assert_eq!(m.failure_rate(10.0), 0.0);
    }

    #[test]
    fn failure_rate_is_monotone_in_interval() {
        let m = RetentionModel::default();
        let mut prev = 0.0;
        for interval in [50.0, 100.0, 360.0, 1050.0, 2000.0, 5400.0, 9120.0, 20_000.0] {
            let rate = m.failure_rate(interval);
            assert!(rate >= prev, "rate not monotone at {interval}");
            prev = rate;
        }
    }

    #[test]
    fn fig4_operating_points() {
        let m = RetentionModel::default();
        // 1.05 ms average interval -> ~2e-3 average failure rate (§7.1).
        let r = m.failure_rate(1050.0);
        assert!(r > 8e-4 && r < 5e-3, "1.05ms -> {r}");
        // ~9.1 ms -> a few percent (Fig. 4 right end of the useful range).
        let r = m.failure_rate(9120.0);
        assert!(r > 0.01 && r < 0.1, "9.12ms -> {r}");
        // 360 us -> well below 1e-3.
        let r = m.failure_rate(360.0);
        assert!(r < 1e-3, "360us -> {r}");
    }

    #[test]
    fn erf_matches_known_values() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-5);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-5);
    }

    #[test]
    fn normal_cdf_symmetry() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
    }
}
