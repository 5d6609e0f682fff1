//! Refresh policies, including the two-dimensional adaptive refresh policy.
//!
//! The refresh interval of an eDRAM region determines both its refresh energy
//! (shorter interval → more refresh operations) and its retention-failure rate
//! (longer interval → more decayed bits, see [`crate::retention`]).  The paper
//! evaluates four strategies (§8.3.3):
//!
//! * **Org** — refresh everything at the 45 µs guaranteed-safe interval
//!   (no corruption, maximum refresh energy);
//! * **Uniform** — a single relaxed interval for all data;
//! * **2DRP** — different intervals per (token-importance × bit-significance)
//!   group (§4.2): HST MSBs get the shortest interval, LST LSBs the longest;
//! * **2DRP + Kelle scheduler** — modelled in `kelle-arch` on top of this
//!   policy by shortening transient-data lifetimes.
//!
//! §7.1 gives the default 2DRP intervals: 0.36 ms / 5.4 ms / 1.44 ms / 7.2 ms
//! for HST-MSB / HST-LSB / LST-MSB / LST-LSB, whose harmonic mean is the
//! quoted 1.05 ms average interval.

use crate::faults::BitFlipRates;
use crate::retention::RetentionModel;

/// Refresh intervals (µs) for the four 2DRP groups.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefreshIntervals {
    /// High-score tokens, most significant byte.
    pub hst_msb_us: f64,
    /// High-score tokens, least significant byte.
    pub hst_lsb_us: f64,
    /// Low-score tokens, most significant byte.
    pub lst_msb_us: f64,
    /// Low-score tokens, least significant byte.
    pub lst_lsb_us: f64,
}

impl RefreshIntervals {
    /// The default 2DRP operating point of §7.1.
    pub fn paper_default() -> Self {
        RefreshIntervals {
            hst_msb_us: 360.0,
            hst_lsb_us: 5400.0,
            lst_msb_us: 1440.0,
            lst_lsb_us: 7200.0,
        }
    }

    /// The three 2DRP settings of Table 4, indexed 0–2 (matching the columns
    /// with uniform intervals 540 µs, 1050 µs and 2062 µs respectively).
    pub fn table4_setting(index: usize) -> Self {
        match index {
            0 => RefreshIntervals {
                hst_msb_us: 180.0,
                hst_lsb_us: 3600.0,
                lst_msb_us: 720.0,
                lst_lsb_us: 5400.0,
            },
            1 => RefreshIntervals {
                hst_msb_us: 360.0,
                hst_lsb_us: 5400.0,
                lst_msb_us: 1440.0,
                lst_lsb_us: 7200.0,
            },
            _ => RefreshIntervals {
                hst_msb_us: 720.0,
                hst_lsb_us: 9000.0,
                lst_msb_us: 2880.0,
                lst_lsb_us: 10_800.0,
            },
        }
    }

    /// All four intervals in group order (HST-MSB, HST-LSB, LST-MSB, LST-LSB).
    pub(crate) fn as_array(&self) -> [f64; 4] {
        [
            self.hst_msb_us,
            self.hst_lsb_us,
            self.lst_msb_us,
            self.lst_lsb_us,
        ]
    }

    /// Scales every interval by `factor` (used by the §8.3.4 retention-time
    /// sweep, which reduces the average interval to 525/262/131 µs).
    pub fn scaled(&self, factor: f64) -> Self {
        RefreshIntervals {
            hst_msb_us: self.hst_msb_us * factor,
            hst_lsb_us: self.hst_lsb_us * factor,
            lst_msb_us: self.lst_msb_us * factor,
            lst_lsb_us: self.lst_lsb_us * factor,
        }
    }
}

/// A refresh strategy for the KV-cache eDRAM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RefreshPolicy {
    /// Refresh everything at the guaranteed-safe retention interval (45 µs).
    Conservative,
    /// Refresh everything at a single relaxed interval (µs).
    Uniform(f64),
    /// The two-dimensional adaptive refresh policy.
    TwoDimensional(RefreshIntervals),
}

impl RefreshPolicy {
    /// The paper's default 2DRP policy.
    pub fn two_dimensional_default() -> Self {
        RefreshPolicy::TwoDimensional(RefreshIntervals::paper_default())
    }

    /// The refresh interval (µs) applied to each of the four groups under this
    /// policy, in the order HST-MSB, HST-LSB, LST-MSB, LST-LSB.
    pub(crate) fn group_intervals_us(&self, retention: &RetentionModel) -> [f64; 4] {
        match self {
            RefreshPolicy::Conservative => [retention.safe_interval_us; 4],
            RefreshPolicy::Uniform(us) => [*us; 4],
            RefreshPolicy::TwoDimensional(iv) => iv.as_array(),
        }
    }

    /// Per-group bit-flip probabilities implied by this policy under the given
    /// retention model.
    pub fn bit_flip_rates(&self, retention: &RetentionModel) -> BitFlipRates {
        let [hst_msb, hst_lsb, lst_msb, lst_lsb] = self.group_intervals_us(retention);
        BitFlipRates {
            hst_msb: retention.failure_rate(hst_msb),
            hst_lsb: retention.failure_rate(hst_lsb),
            lst_msb: retention.failure_rate(lst_msb),
            lst_lsb: retention.failure_rate(lst_lsb),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Harmonic mean of a setting's four intervals: the effective average
    /// interval between refresh operations, which is how §7.1 summarises a
    /// setting ("average retention time of 1.05 ms").
    fn harmonic_mean_us(intervals: &RefreshIntervals) -> f64 {
        4.0 / intervals.as_array().iter().map(|i| 1.0 / i).sum::<f64>()
    }

    #[test]
    fn paper_default_average_is_about_1050us() {
        let iv = RefreshIntervals::paper_default();
        let avg = harmonic_mean_us(&iv);
        assert!((avg - 1050.0).abs() < 30.0, "got {avg}");
    }

    #[test]
    fn conservative_policy_uses_safe_interval() {
        let retention = RetentionModel::default();
        let policy = RefreshPolicy::Conservative;
        assert_eq!(policy.group_intervals_us(&retention), [45.0; 4]);
        let rates = policy.bit_flip_rates(&retention);
        assert_eq!(rates.hst_msb, 0.0);
        assert_eq!(rates.lst_lsb, 0.0);
    }

    #[test]
    fn two_dimensional_rates_are_ordered() {
        let retention = RetentionModel::default();
        let policy = RefreshPolicy::two_dimensional_default();
        let rates = policy.bit_flip_rates(&retention);
        // Shorter interval -> lower failure rate.
        assert!(rates.hst_msb < rates.lst_msb);
        assert!(rates.lst_msb < rates.hst_lsb);
        assert!(rates.hst_lsb < rates.lst_lsb);
    }

    #[test]
    fn table4_settings_are_distinct_and_ordered() {
        let a = harmonic_mean_us(&RefreshIntervals::table4_setting(0));
        let b = harmonic_mean_us(&RefreshIntervals::table4_setting(1));
        let c = harmonic_mean_us(&RefreshIntervals::table4_setting(2));
        assert!(a < b && b < c);
    }

    #[test]
    fn scaled_intervals() {
        let iv = RefreshIntervals::paper_default().scaled(0.5);
        assert_eq!(iv.hst_msb_us, 180.0);
        assert!((harmonic_mean_us(&iv) - 525.0).abs() < 15.0);
    }
}
