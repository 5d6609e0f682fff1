//! SRAM / eDRAM / DRAM device parameters.
//!
//! Table 1 of the paper (65 nm, 4 MB arrays, Destiny characterisation):
//!
//! | | area | access latency | access energy | leakage | refresh energy | retention |
//! |---|---|---|---|---|---|---|
//! | SRAM  | 7.3 mm² | 2.6 ns | 185.9 pJ/B | 415 mW | — | — |
//! | eDRAM | 3.2 mm² | 1.9 ns | 84.8 pJ/B  | 154 mW | 1.14 mJ (full array) | 45 µs |
//!
//! The off-chip memory is a 16 GB LPDDR4 with 64 GB/s bandwidth (Cacti 7,
//! matching the Google Coral edge platform of §3.1/§8).  The DRAM access
//! energy uses a system-level LPDDR4 transfer cost of ≈200 pJ/B (device +
//! PHY + controller); only ratios between on-chip and off-chip traffic matter
//! for the shapes the evaluation reproduces.

/// Reference capacity for the Table 1 area/leakage/refresh numbers.
pub(crate) const TABLE1_CAPACITY_BYTES: u64 = 4 * 1024 * 1024;

/// Which on-chip storage technology a buffer is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryTechnology {
    /// 6T SRAM.
    Sram,
    /// 3T gain-cell embedded DRAM.
    Edram,
}

impl MemoryTechnology {
    /// Area in mm² for a 4 MB array at 65 nm (Table 1).
    pub fn area_mm2_4mb(self) -> f64 {
        match self {
            MemoryTechnology::Sram => 7.3,
            MemoryTechnology::Edram => 3.2,
        }
    }

    /// Random-access latency in nanoseconds (Table 1).
    pub fn access_latency_ns(self) -> f64 {
        match self {
            MemoryTechnology::Sram => 2.6,
            MemoryTechnology::Edram => 1.9,
        }
    }

    /// Access energy in picojoules per byte (Table 1).
    pub fn access_energy_pj_per_byte(self) -> f64 {
        match self {
            MemoryTechnology::Sram => 185.9,
            MemoryTechnology::Edram => 84.8,
        }
    }

    /// Leakage power in milliwatts for a 4 MB array (Table 1).
    pub fn leakage_mw_4mb(self) -> f64 {
        match self {
            MemoryTechnology::Sram => 415.0,
            MemoryTechnology::Edram => 154.0,
        }
    }

    /// Energy of refreshing the whole 4 MB array once, in millijoules
    /// (Table 1; zero for SRAM which needs no refresh).
    pub fn refresh_energy_mj_4mb(self) -> f64 {
        match self {
            MemoryTechnology::Sram => 0.0,
            MemoryTechnology::Edram => 1.14,
        }
    }

    /// Worst-case cell retention time in microseconds (Table 1; SRAM retains
    /// data indefinitely while powered).
    pub fn retention_time_us(self) -> Option<f64> {
        match self {
            MemoryTechnology::Sram => None,
            MemoryTechnology::Edram => Some(45.0),
        }
    }
}

/// A sized on-chip memory built from one of the technologies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemorySpec {
    /// Storage technology.
    pub technology: MemoryTechnology,
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Peak bandwidth in bytes per second (set by the bank organisation; §8
    /// uses 128 GB/s for the weight SRAM and 256 GB/s for the KV eDRAM).
    pub bandwidth_bytes_per_s: f64,
}

impl MemorySpec {
    /// Creates a memory spec.
    ///
    /// # Panics
    ///
    /// Panics if capacity or bandwidth is zero.
    pub fn new(technology: MemoryTechnology, capacity_bytes: u64, bandwidth_gb_per_s: f64) -> Self {
        assert!(capacity_bytes > 0, "memory capacity must be non-zero");
        assert!(
            bandwidth_gb_per_s > 0.0,
            "memory bandwidth must be positive"
        );
        MemorySpec {
            technology,
            capacity_bytes,
            bandwidth_bytes_per_s: bandwidth_gb_per_s * 1e9,
        }
    }

    /// The Kelle accelerator's 4 MB KV-cache eDRAM at 256 GB/s (§5.1, §8).
    pub fn kelle_kv_edram() -> Self {
        MemorySpec::new(MemoryTechnology::Edram, 4 * 1024 * 1024, 256.0)
    }

    /// The Kelle accelerator's 256 KB activation eDRAM (§5.1).
    pub fn kelle_activation_edram() -> Self {
        MemorySpec::new(MemoryTechnology::Edram, 256 * 1024, 256.0)
    }

    /// The Kelle accelerator's 2 MB weight SRAM at 128 GB/s (§5.1, §8).
    pub fn kelle_weight_sram() -> Self {
        MemorySpec::new(MemoryTechnology::Sram, 2 * 1024 * 1024, 128.0)
    }

    /// Area in mm², scaled linearly from the 4 MB Table 1 reference.
    pub fn area_mm2(&self) -> f64 {
        self.technology.area_mm2_4mb() * self.capacity_bytes as f64 / TABLE1_CAPACITY_BYTES as f64
    }

    /// Leakage power in watts, scaled linearly from the 4 MB reference.
    pub fn leakage_w(&self) -> f64 {
        self.technology.leakage_mw_4mb() * 1e-3 * self.capacity_bytes as f64
            / TABLE1_CAPACITY_BYTES as f64
    }

    /// Energy in joules to access `bytes` bytes.
    pub fn access_energy_j(&self, bytes: u64) -> f64 {
        self.technology.access_energy_pj_per_byte() * 1e-12 * bytes as f64
    }

    /// Time in seconds to stream `bytes` bytes at peak bandwidth.
    pub fn access_time_s(&self, bytes: u64) -> f64 {
        self.technology.access_latency_ns() * 1e-9 + bytes as f64 / self.bandwidth_bytes_per_s
    }

    /// Energy in joules to refresh `bytes` bytes once.
    pub(crate) fn refresh_energy_j(&self, bytes: u64) -> f64 {
        self.technology.refresh_energy_mj_4mb() * 1e-3 * bytes as f64 / TABLE1_CAPACITY_BYTES as f64
    }
}

/// The NVMe storage tier backing the KV hierarchy's coldest data.
///
/// The paper's platform has no flash tier, but the tiered KV extension
/// (`kelle::tier`) follows DUAL-BLADE/KVNAND-style NVMe offloading: KV
/// arenas that fall out of both eDRAM and DRAM budgets are held on an edge
/// NVMe device and replayed on touch.  The numbers model a commodity edge
/// M.2 drive: sequential-stream bandwidth, first-access latency dominated by
/// the flash translation layer, and a per-byte transfer energy that covers
/// NAND array + controller + PCIe PHY.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NvmeSpec {
    /// Capacity in bytes.
    pub(crate) capacity_bytes: u64,
    /// Sustained sequential bandwidth in bytes per second.
    pub(crate) bandwidth_bytes_per_s: f64,
    /// Transfer energy in picojoules per byte (NAND + controller + link).
    pub(crate) access_energy_pj_per_byte: f64,
    /// First-access latency in microseconds.
    pub(crate) latency_us: f64,
    /// Background (idle) power in watts.
    pub(crate) background_power_w: f64,
}

impl NvmeSpec {
    /// A 256 GB edge M.2 NVMe drive: 2 GB/s sustained, ~80 µs first access,
    /// ≈1.5 nJ/B transfer energy (an order of magnitude above LPDDR4, the
    /// ratio that makes NVMe the tier of last resort).
    pub fn edge_m2_256gb() -> Self {
        NvmeSpec {
            capacity_bytes: 256 * 1024 * 1024 * 1024,
            bandwidth_bytes_per_s: 2.0e9,
            access_energy_pj_per_byte: 1500.0,
            latency_us: 80.0,
            background_power_w: 0.05,
        }
    }

    /// Energy in joules to transfer `bytes` bytes.
    pub fn access_energy_j(&self, bytes: u64) -> f64 {
        self.access_energy_pj_per_byte * 1e-12 * bytes as f64
    }

    /// Time in seconds to transfer `bytes` bytes at sustained bandwidth.
    pub fn access_time_s(&self, bytes: u64) -> f64 {
        self.latency_us * 1e-6 + bytes as f64 / self.bandwidth_bytes_per_s
    }
}

/// The off-chip DRAM channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramSpec {
    /// Capacity in bytes (16 GB in the paper's platform).
    pub(crate) capacity_bytes: u64,
    /// Peak bandwidth in bytes per second (64 GB/s).
    pub bandwidth_bytes_per_s: f64,
    /// Access energy in picojoules per byte.
    pub access_energy_pj_per_byte: f64,
    /// First-word access latency in nanoseconds.
    pub(crate) latency_ns: f64,
    /// Background (active-idle) power in watts.
    pub background_power_w: f64,
    /// Die area in mm² (the paper reports 16 mm² for its LPDDR4 model).
    pub area_mm2: f64,
}

impl DramSpec {
    /// The 16 GB, 64 GB/s LPDDR4 configuration used throughout the paper.
    pub fn lpddr4_16gb() -> Self {
        DramSpec {
            capacity_bytes: 16 * 1024 * 1024 * 1024,
            bandwidth_bytes_per_s: 64.0e9,
            access_energy_pj_per_byte: 200.0,
            latency_ns: 100.0,
            background_power_w: 0.35,
            area_mm2: 16.0,
        }
    }

    /// Energy in joules to transfer `bytes` bytes.
    pub fn access_energy_j(&self, bytes: u64) -> f64 {
        self.access_energy_pj_per_byte * 1e-12 * bytes as f64
    }

    /// Time in seconds to transfer `bytes` bytes at peak bandwidth.
    pub fn access_time_s(&self, bytes: u64) -> f64 {
        self.latency_ns * 1e-9 + bytes as f64 / self.bandwidth_bytes_per_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_constants() {
        assert_eq!(MemoryTechnology::Sram.area_mm2_4mb(), 7.3);
        assert_eq!(MemoryTechnology::Edram.area_mm2_4mb(), 3.2);
        assert_eq!(MemoryTechnology::Edram.retention_time_us(), Some(45.0));
        assert_eq!(MemoryTechnology::Sram.retention_time_us(), None);
        assert_eq!(MemoryTechnology::Sram.refresh_energy_mj_4mb(), 0.0);
    }

    #[test]
    fn edram_denser_and_cheaper_than_sram() {
        let sram = MemorySpec::new(MemoryTechnology::Sram, 4 * 1024 * 1024, 128.0);
        let edram = MemorySpec::kelle_kv_edram();
        assert!(edram.area_mm2() < sram.area_mm2());
        assert!(edram.leakage_w() < sram.leakage_w());
        assert!(edram.access_energy_j(1024) < sram.access_energy_j(1024));
        // >2x density claim: same capacity in < half the area.
        assert!(edram.area_mm2() * 2.0 < sram.area_mm2() * 1.01);
    }

    #[test]
    fn area_scales_linearly_with_capacity() {
        let m8 = MemorySpec::new(MemoryTechnology::Sram, 8 * 1024 * 1024, 128.0);
        let m4 = MemorySpec::new(MemoryTechnology::Sram, 4 * 1024 * 1024, 128.0);
        assert!((m8.area_mm2() - 2.0 * m4.area_mm2()).abs() < 1e-9);
    }

    #[test]
    fn refresh_power_matches_hand_calculation() {
        let edram = MemorySpec::kelle_kv_edram();
        // Refreshing the full 4 MB every 45 us: 1.14 mJ / 45 us = 25.3 W.
        let p = edram.refresh_energy_j(4 * 1024 * 1024) / 45e-6;
        assert!((p - 25.33).abs() < 0.5, "got {p}");
        // Relaxing the interval to 1.05 ms cuts it to ~1.1 W.
        let relaxed = edram.refresh_energy_j(4 * 1024 * 1024) / 1050e-6;
        assert!(relaxed < 1.2 && relaxed > 1.0, "got {relaxed}");
    }

    #[test]
    fn nvme_is_slower_and_costlier_than_dram() {
        let nvme = NvmeSpec::edge_m2_256gb();
        let dram = DramSpec::lpddr4_16gb();
        let bytes = 1 << 20;
        assert!(nvme.access_time_s(bytes) > dram.access_time_s(bytes));
        assert!(nvme.access_energy_j(bytes) > dram.access_energy_j(bytes));
        // Latency floor shows up even for empty transfers.
        assert!(nvme.access_time_s(0) > 79.0e-6);
        assert!(nvme.capacity_bytes > dram.capacity_bytes);
    }

    #[test]
    fn dram_transfer_cost() {
        let dram = DramSpec::lpddr4_16gb();
        // 1 GiB at 64 GB/s takes ~16.8 ms.
        let t = dram.access_time_s(1 << 30);
        assert!(t > 0.015 && t < 0.018, "got {t}");
        assert!(dram.access_energy_j(1 << 30) > 0.1);
    }

    #[test]
    fn access_time_includes_latency_floor() {
        let edram = MemorySpec::kelle_kv_edram();
        assert!(edram.access_time_s(0) > 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_panics() {
        MemorySpec::new(MemoryTechnology::Sram, 0, 128.0);
    }
}
