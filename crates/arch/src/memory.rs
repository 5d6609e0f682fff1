//! The accelerator's memory subsystem (§5.1).
//!
//! Kelle splits on-chip storage into a 2 MB weight SRAM, a 4 MB banked
//! KV-cache eDRAM and a 256 KB activation eDRAM; the SRAM baselines use one
//! unified SRAM for everything.  Model weights are far larger than any on-chip
//! memory (≈ 6.5 GB at 8 bits for LLaMA2-7B), so weights always stream from
//! the LPDDR4 channel through the weight memory; the KV cache is served from
//! the on-chip KV memory up to its capacity and spills the remainder to DRAM.

use kelle_edram::{DramSpec, MemorySpec, MemoryTechnology, MemoryTier, NvmeSpec};

/// Cost of one traffic operation, split by where the bytes moved.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrafficCost {
    /// Exposed transfer time in seconds.
    pub time_s: f64,
    /// Energy spent in on-chip memories, in joules.
    pub onchip_energy_j: f64,
    /// Energy spent on the DRAM channel, in joules.
    pub dram_energy_j: f64,
    /// Bytes served on-chip.
    pub(crate) onchip_bytes: u64,
    /// Bytes served from DRAM.
    pub(crate) dram_bytes: u64,
}

/// The on-chip + off-chip memory configuration of a platform.
#[derive(Debug, Clone, PartialEq)]
pub struct MemorySubsystem {
    /// Weight buffer (always SRAM in the evaluated platforms).
    pub(crate) weight_memory: MemorySpec,
    /// KV-cache memory (SRAM for the baselines, eDRAM for Kelle).
    pub kv_memory: MemorySpec,
    /// Activation buffer (Kelle uses a small dedicated eDRAM; the SRAM
    /// baselines carve activations out of the unified SRAM).
    pub(crate) activation_memory: MemorySpec,
    /// The off-chip DRAM channel.
    pub dram: DramSpec,
    /// The NVMe storage tier backing the coldest KV data (`kelle::tier`).
    pub(crate) nvme: NvmeSpec,
}

impl MemorySubsystem {
    /// The Kelle accelerator's memory subsystem: 2 MB weight SRAM (128 GB/s),
    /// 4 MB KV eDRAM (256 GB/s), 256 KB activation eDRAM.
    pub fn kelle_default() -> Self {
        MemorySubsystem {
            weight_memory: MemorySpec::kelle_weight_sram(),
            kv_memory: MemorySpec::kelle_kv_edram(),
            activation_memory: MemorySpec::kelle_activation_edram(),
            dram: DramSpec::lpddr4_16gb(),
            nvme: NvmeSpec::edge_m2_256gb(),
        }
    }

    /// The area-matched SRAM baseline: a 4 MB unified SRAM of which 2 MB acts
    /// as the weight buffer, ~1.75 MB as KV storage and 256 KB as activation
    /// buffer (§8.1.1 keeps total on-chip area equal to Kelle, which is why
    /// the SRAM platform ends up with both less storage and a smaller array).
    pub(crate) fn baseline_sram() -> Self {
        MemorySubsystem {
            weight_memory: MemorySpec::new(MemoryTechnology::Sram, 2 * 1024 * 1024, 128.0),
            kv_memory: MemorySpec::new(MemoryTechnology::Sram, 1792 * 1024, 128.0),
            activation_memory: MemorySpec::new(MemoryTechnology::Sram, 256 * 1024, 128.0),
            dram: DramSpec::lpddr4_16gb(),
            nvme: NvmeSpec::edge_m2_256gb(),
        }
    }

    /// A Kelle-style subsystem with the §8.3.7 halved-bandwidth eDRAM (same
    /// capacity, 128 GB/s).
    pub fn kelle_halved_bandwidth() -> Self {
        let mut base = Self::kelle_default();
        base.kv_memory = MemorySpec::new(MemoryTechnology::Edram, 4 * 1024 * 1024, 128.0);
        base
    }

    /// Whether the KV memory is eDRAM (and therefore needs refresh).
    pub(crate) fn kv_is_edram(&self) -> bool {
        self.kv_memory.technology == MemoryTechnology::Edram
    }

    /// Sum of on-chip leakage power in watts.
    pub(crate) fn onchip_leakage_w(&self) -> f64 {
        self.weight_memory.leakage_w()
            + self.kv_memory.leakage_w()
            + self.activation_memory.leakage_w()
    }

    /// Cost of streaming `bytes` bytes of weights from DRAM through the weight
    /// buffer into the array.
    pub(crate) fn weight_stream_cost(&self, bytes: u64) -> TrafficCost {
        let dram_time = self.dram.access_time_s(bytes);
        let sram_time = self.weight_memory.access_time_s(bytes);
        TrafficCost {
            time_s: dram_time.max(sram_time),
            onchip_energy_j: self.weight_memory.access_energy_j(bytes),
            dram_energy_j: self.dram.access_energy_j(bytes),
            onchip_bytes: bytes,
            dram_bytes: bytes,
        }
    }

    /// Cost of reading `resident_bytes` of KV data that fit in the on-chip KV
    /// memory plus `overflow_bytes` that must come from DRAM.
    pub(crate) fn kv_read_cost(&self, resident_bytes: u64, overflow_bytes: u64) -> TrafficCost {
        let onchip_time = self.kv_memory.access_time_s(resident_bytes);
        let dram_time = if overflow_bytes > 0 {
            self.dram.access_time_s(overflow_bytes)
        } else {
            0.0
        };
        TrafficCost {
            // On-chip reads and DRAM fetches of the overflow proceed in
            // parallel on separate interfaces; the step waits for the slower.
            time_s: onchip_time.max(dram_time),
            // DRAM-fetched KV data is staged through the on-chip KV buffer
            // before reaching the array, so it pays the buffer access energy
            // in addition to the channel energy.
            onchip_energy_j: self
                .kv_memory
                .access_energy_j(resident_bytes + overflow_bytes),
            dram_energy_j: self.dram.access_energy_j(overflow_bytes),
            onchip_bytes: resident_bytes + overflow_bytes,
            dram_bytes: overflow_bytes,
        }
    }

    /// Cost of writing `bytes` of new KV data, split between on-chip residence
    /// and DRAM spill in the same proportion as the read path.
    pub(crate) fn kv_write_cost(&self, resident_bytes: u64, overflow_bytes: u64) -> TrafficCost {
        // Writes and reads cost the same per byte in the Table 1 model.
        self.kv_read_cost(resident_bytes, overflow_bytes)
    }

    /// Splits a total KV working set into (on-chip, DRAM-overflow) bytes when
    /// the workload gets only `granted_bytes` of the KV memory (its share
    /// under capacity arbitration).  The grant is itself capped by the
    /// physical capacity; `None` grants the whole memory.
    pub(crate) fn split_kv_residency_capped(
        &self,
        total_bytes: u64,
        granted_bytes: Option<u64>,
    ) -> (u64, u64) {
        let capacity = self.kv_memory.capacity_bytes;
        let granted = granted_bytes.map_or(capacity, |g| g.min(capacity));
        if total_bytes <= granted {
            (total_bytes, 0)
        } else {
            (granted, total_bytes - granted)
        }
    }

    /// Transfer time and energy of one side (read or write) of a tier
    /// migration, plus whether that side is on-chip.
    fn tier_side_cost(&self, tier: MemoryTier, bytes: u64) -> (f64, f64, bool) {
        match tier {
            MemoryTier::Edram => (
                self.kv_memory.access_time_s(bytes),
                self.kv_memory.access_energy_j(bytes),
                true,
            ),
            MemoryTier::Dram => (
                self.dram.access_time_s(bytes),
                self.dram.access_energy_j(bytes),
                false,
            ),
            MemoryTier::Nvme => (
                self.nvme.access_time_s(bytes),
                self.nvme.access_energy_j(bytes),
                false,
            ),
        }
    }

    /// Cost of migrating `bytes` of KV data from tier `from` to tier `to`
    /// (a `kelle::tier` demotion or promotion): the payload is read out of
    /// the source and written into the destination, the two interfaces
    /// streaming in parallel so the exposed time is the slower side's.  The
    /// eDRAM side charges on-chip energy/bytes; DRAM and NVMe sides are both
    /// off-chip and charge the `dram_*` fields (the payload is counted once,
    /// with both sides' energies summed).
    ///
    /// # Panics
    ///
    /// Panics if `from == to`.
    pub fn kv_migration_cost(&self, from: MemoryTier, to: MemoryTier, bytes: u64) -> TrafficCost {
        assert_ne!(from, to, "migration requires distinct tiers");
        let (read_time, read_energy, read_onchip) = self.tier_side_cost(from, bytes);
        let (write_time, write_energy, write_onchip) = self.tier_side_cost(to, bytes);
        let onchip_energy: f64 = [(read_energy, read_onchip), (write_energy, write_onchip)]
            .iter()
            .filter(|&&(_, onchip)| onchip)
            .map(|&(energy, _)| energy)
            .sum();
        let offchip_energy = read_energy + write_energy - onchip_energy;
        TrafficCost {
            time_s: read_time.max(write_time),
            onchip_energy_j: onchip_energy,
            dram_energy_j: offchip_energy,
            onchip_bytes: if read_onchip || write_onchip {
                bytes
            } else {
                0
            },
            dram_bytes: if !read_onchip || !write_onchip {
                bytes
            } else {
                0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kelle_subsystem_shape() {
        let mem = MemorySubsystem::kelle_default();
        assert!(mem.kv_is_edram());
        assert_eq!(mem.kv_memory.capacity_bytes, 4 * 1024 * 1024);
        assert_eq!(mem.weight_memory.capacity_bytes, 2 * 1024 * 1024);
    }

    #[test]
    fn baseline_sram_has_no_refreshable_memory() {
        let mem = MemorySubsystem::baseline_sram();
        assert!(!mem.kv_is_edram());
        // Area parity: the SRAM platform's on-chip capacity is smaller than
        // Kelle's because SRAM is less dense.
        let onchip = |m: &MemorySubsystem| {
            m.weight_memory.capacity_bytes
                + m.kv_memory.capacity_bytes
                + m.activation_memory.capacity_bytes
        };
        assert!(onchip(&mem) < onchip(&MemorySubsystem::kelle_default()));
    }

    #[test]
    fn weight_stream_is_dram_bound() {
        let mem = MemorySubsystem::kelle_default();
        let cost = mem.weight_stream_cost(1 << 30);
        // 1 GiB at 64 GB/s ~ 16.8 ms, far above the SRAM time.
        assert!(cost.time_s > 0.015);
        assert!(cost.dram_energy_j > cost.onchip_energy_j * 0.5);
    }

    #[test]
    fn kv_residency_split() {
        let mem = MemorySubsystem::kelle_default();
        assert_eq!(mem.split_kv_residency_capped(1024, None), (1024, 0));
        let (resident, overflow) = mem.split_kv_residency_capped(10 * 1024 * 1024, None);
        assert_eq!(resident, 4 * 1024 * 1024);
        assert_eq!(overflow, 6 * 1024 * 1024);
    }

    #[test]
    fn capped_residency_split_respects_grant_and_capacity() {
        let mem = MemorySubsystem::kelle_default();
        // A grant below capacity shifts bytes from on-chip to DRAM overflow.
        assert_eq!(
            mem.split_kv_residency_capped(3 << 20, Some(1 << 20)),
            (1 << 20, 2 << 20)
        );
        // A grant above capacity is clamped to the physical capacity.
        assert_eq!(
            mem.split_kv_residency_capped(10 << 20, Some(64 << 20)),
            (4 << 20, 6 << 20)
        );
    }

    #[test]
    fn kv_overflow_costs_dram_energy() {
        let mem = MemorySubsystem::kelle_default();
        let no_overflow = mem.kv_read_cost(1 << 20, 0);
        let with_overflow = mem.kv_read_cost(1 << 20, 1 << 20);
        assert_eq!(no_overflow.dram_energy_j, 0.0);
        assert!(with_overflow.dram_energy_j > 0.0);
        assert!(with_overflow.time_s >= no_overflow.time_s);
    }

    #[test]
    fn edram_kv_reads_cheaper_than_sram_kv_reads() {
        let kelle = MemorySubsystem::kelle_default();
        let sram = MemorySubsystem::baseline_sram();
        let bytes = 1 << 20;
        assert!(
            kelle.kv_read_cost(bytes, 0).onchip_energy_j
                < sram.kv_read_cost(bytes, 0).onchip_energy_j
        );
    }

    #[test]
    fn migration_costs_rank_by_tier_distance() {
        let mem = MemorySubsystem::kelle_default();
        let bytes = 1 << 20;
        let demote = mem.kv_migration_cost(MemoryTier::Edram, MemoryTier::Dram, bytes);
        let deep = mem.kv_migration_cost(MemoryTier::Dram, MemoryTier::Nvme, bytes);
        // eDRAM→DRAM is DRAM-channel-bound; DRAM→NVMe is NVMe-bound and
        // slower/costlier still.
        assert!(demote.time_s > 0.0 && deep.time_s > demote.time_s);
        assert!(deep.dram_energy_j > demote.dram_energy_j);
        // The eDRAM side shows up as on-chip traffic; a DRAM↔NVMe move is
        // entirely off-chip.
        assert_eq!(demote.onchip_bytes, bytes);
        assert_eq!(demote.dram_bytes, bytes);
        assert_eq!(deep.onchip_bytes, 0);
        assert_eq!(deep.onchip_energy_j, 0.0);
        // Promotion mirrors demotion in this symmetric cost model.
        let promote = mem.kv_migration_cost(MemoryTier::Dram, MemoryTier::Edram, bytes);
        assert_eq!(promote.time_s, demote.time_s);
        assert_eq!(promote.dram_energy_j, demote.dram_energy_j);
    }

    #[test]
    #[should_panic(expected = "distinct tiers")]
    fn self_migration_cost_panics() {
        MemorySubsystem::kelle_default().kv_migration_cost(
            MemoryTier::Edram,
            MemoryTier::Edram,
            1024,
        );
    }

    #[test]
    fn halved_bandwidth_variant() {
        let mem = MemorySubsystem::kelle_halved_bandwidth();
        assert_eq!(mem.kv_memory.capacity_bytes, 4 * 1024 * 1024);
        let full = MemorySubsystem::kelle_default();
        assert!(mem.kv_read_cost(1 << 22, 0).time_s > full.kv_read_cost(1 << 22, 0).time_s);
    }
}
