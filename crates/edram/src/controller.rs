//! The eDRAM controller: refresh scheduling (§5.1).
//!
//! The hardware has two refresh controllers (one for the MSB banks, one for
//! the LSB banks), each with per-score-group counters.  For the analytical
//! simulation we need the controller to answer two questions about a window
//! of execution:
//!
//! 1. how many refresh operations were issued and what they cost, given the
//!    refresh policy and the occupancy of each 2DRP group; and
//! 2. how much refresh energy *transient* data (activations scheduled by the
//!    Kelle scheduler, §6) incurs given its lifetime — data whose lifetime is
//!    shorter than its refresh interval is never refreshed at all, which is
//!    the scheduler's whole point.

use crate::device::MemorySpec;
use crate::refresh::RefreshPolicy;
use crate::retention::RetentionModel;

/// Refresh work performed over a simulated window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RefreshActivity {
    /// Number of byte-refresh operations issued (bytes x refresh rounds).
    pub(crate) refreshed_bytes: f64,
    /// Energy spent on refresh, in joules.
    pub energy_j: f64,
    /// Average refresh power over the window, in watts.
    pub(crate) power_w: f64,
}

/// The eDRAM controller model.
#[derive(Debug, Clone, PartialEq)]
pub struct EdramController {
    spec: MemorySpec,
    retention: RetentionModel,
    policy: RefreshPolicy,
}

impl EdramController {
    /// Creates a controller for an eDRAM array under the given policy.
    pub fn new(spec: MemorySpec, retention: RetentionModel, policy: RefreshPolicy) -> Self {
        EdramController {
            spec,
            retention,
            policy,
        }
    }

    /// Refresh work for *resident* data (the KV cache itself) held for
    /// `duration_s` seconds with the given per-group occupancy
    /// (HST-MSB, HST-LSB, LST-MSB, LST-LSB order).
    pub fn resident_refresh(&self, bytes_per_group: [u64; 4], duration_s: f64) -> RefreshActivity {
        let intervals = self.policy.group_intervals_us(&self.retention);
        let mut refreshed_bytes = 0.0;
        let mut energy = 0.0;
        for (interval_us, bytes) in intervals.iter().zip(bytes_per_group.iter()) {
            if *bytes == 0 {
                continue;
            }
            let rounds = duration_s / (interval_us * 1e-6);
            refreshed_bytes += rounds * *bytes as f64;
            energy += rounds * self.spec.refresh_energy_j(*bytes);
        }
        RefreshActivity {
            refreshed_bytes,
            energy_j: energy,
            power_w: if duration_s > 0.0 {
                energy / duration_s
            } else {
                0.0
            },
        }
    }

    /// Refresh work for *transient* data (activations, recomputed KV) of size
    /// `bytes` that lives for `lifetime_s` seconds.  Data whose lifetime is
    /// shorter than its refresh interval incurs no refresh at all — the
    /// property the Kelle scheduler exploits (§6).
    ///
    /// The most conservative (shortest) group interval of the policy is used,
    /// since transient activations are not score-classified.
    pub fn transient_refresh(&self, bytes: u64, lifetime_s: f64) -> RefreshActivity {
        let interval_s = self
            .policy
            .group_intervals_us(&self.retention)
            .into_iter()
            .fold(f64::INFINITY, f64::min)
            * 1e-6;
        let rounds = (lifetime_s / interval_s).floor();
        let energy = rounds * self.spec.refresh_energy_j(bytes);
        RefreshActivity {
            refreshed_bytes: rounds * bytes as f64,
            energy_j: energy,
            power_w: if lifetime_s > 0.0 {
                energy / lifetime_s
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refresh::RefreshIntervals;

    fn controller(policy: RefreshPolicy) -> EdramController {
        EdramController::new(
            MemorySpec::kelle_kv_edram(),
            RetentionModel::default(),
            policy,
        )
    }

    #[test]
    fn conservative_refresh_dominates_relaxed() {
        let bytes = [1 << 20; 4];
        let cons = controller(RefreshPolicy::Conservative).resident_refresh(bytes, 1.0);
        let relaxed = controller(RefreshPolicy::Uniform(1050.0)).resident_refresh(bytes, 1.0);
        let twod =
            controller(RefreshPolicy::two_dimensional_default()).resident_refresh(bytes, 1.0);
        assert!(cons.energy_j > 10.0 * relaxed.energy_j);
        assert!(twod.energy_j < cons.energy_j / 5.0);
        assert!(cons.power_w > twod.power_w);
    }

    #[test]
    fn two_dimensional_refresh_spends_most_on_hst_msb() {
        let ctrl = controller(RefreshPolicy::TwoDimensional(
            RefreshIntervals::paper_default(),
        ));
        let only_hst_msb = ctrl.resident_refresh([1 << 20, 0, 0, 0], 1.0);
        let only_lst_lsb = ctrl.resident_refresh([0, 0, 0, 1 << 20], 1.0);
        assert!(only_hst_msb.energy_j > 10.0 * only_lst_lsb.energy_j);
    }

    #[test]
    fn empty_occupancy_costs_nothing() {
        let ctrl = controller(RefreshPolicy::Conservative);
        let act = ctrl.resident_refresh([0, 0, 0, 0], 1.0);
        assert_eq!(act.energy_j, 0.0);
        assert_eq!(act.refreshed_bytes, 0.0);
    }

    #[test]
    fn transient_data_shorter_than_interval_is_free() {
        let ctrl = controller(RefreshPolicy::Uniform(1000.0));
        // Lifetime 100 us << 1000 us interval: no refresh.
        let act = ctrl.transient_refresh(64 * 1024, 100e-6);
        assert_eq!(act.energy_j, 0.0);
        // Lifetime 5 ms: 5 refresh rounds.
        let act = ctrl.transient_refresh(64 * 1024, 5e-3);
        assert!(act.energy_j > 0.0);
        assert!((act.refreshed_bytes - 5.0 * 65_536.0).abs() < 1.0);
    }
}
