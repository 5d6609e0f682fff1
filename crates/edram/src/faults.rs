//! Per-group bit-flip rates derived from a refresh policy.
//!
//! This is the hand-off point between the device layer (which knows retention
//! physics and refresh intervals) and the functional model (which knows which
//! token a value belongs to and which bits are significant): a
//! [`RefreshPolicy`](crate::RefreshPolicy) yields a [`BitFlipRates`], and
//! `kelle-model`'s fault injector consumes that same struct.

/// Per-(token-group, bit-significance) retention-failure probabilities.
///
/// A rate is a probability: `p ≥ 1` flips every bit, and `p < 2⁻⁶⁴`, a
/// negative or a NaN never flips one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitFlipRates {
    /// High-score tokens, most significant byte.
    pub hst_msb: f64,
    /// High-score tokens, least significant byte.
    pub hst_lsb: f64,
    /// Low-score tokens, most significant byte.
    pub lst_msb: f64,
    /// Low-score tokens, least significant byte.
    pub lst_lsb: f64,
}

impl BitFlipRates {
    /// A uniform rate across all four groups (the "Uniform" ablation in
    /// Table 4).
    pub fn uniform(rate: f64) -> Self {
        BitFlipRates {
            hst_msb: rate,
            hst_lsb: rate,
            lst_msb: rate,
            lst_lsb: rate,
        }
    }

    /// No corruption at all.
    pub fn zero() -> Self {
        Self::uniform(0.0)
    }

    /// Average rate across the four groups (equal weighting, since the four
    /// groups occupy equal shares of the banked layout in §5.1).
    pub fn average(&self) -> f64 {
        (self.hst_msb + self.hst_lsb + self.lst_msb + self.lst_lsb) / 4.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_and_average() {
        let r = BitFlipRates::uniform(0.01);
        assert_eq!(r.average(), 0.01);
        assert_eq!(BitFlipRates::zero().average(), 0.0);
    }

    /// The equal-weight average sits strictly between the smallest and the
    /// largest group rate, so it never stands in for the worst group.
    #[test]
    fn max_picks_largest() {
        let r = BitFlipRates {
            hst_msb: 0.0,
            hst_lsb: 0.3,
            lst_msb: 0.1,
            lst_lsb: 0.2,
        };
        assert!((r.average() - 0.15).abs() < 1e-12);
        assert!(r.hst_msb < r.average() && r.average() < r.hst_lsb);
    }
}
