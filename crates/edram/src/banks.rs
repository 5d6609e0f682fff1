//! Banked KV-cache eDRAM layout (§5.1).
//!
//! The Kelle accelerator splits each 16-bit KV element bitwise across four bank
//! groups — Key-MSB, Key-LSB, Value-MSB, Value-LSB — with 8 banks per group
//! (32 banks total), so that (a) 2DRP can refresh the MSB and LSB halves at
//! different rates, and (b) the 32×32 systolic array can be fed without bank
//! conflicts.  KV vectors of the same token share an address (row) across all
//! banks, which is what lets an evicted token's slot be reused in place
//! (§8.4.1's permutation-invariance argument).

/// The banked organisation of the KV-cache eDRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankedLayout {
    /// Total number of banks (32 in the paper).
    pub total_banks: usize,
    /// Row width of one bank in bits (128 in Fig. 10).
    pub row_bits: usize,
    /// Per-bank peak bandwidth in bytes per second.
    pub per_bank_bandwidth_bytes_per_s: u64,
}

impl BankedLayout {
    /// The paper's 32-bank layout: 8 banks per group, 128-bit rows, sized so
    /// the aggregate bandwidth is 256 GB/s.
    pub fn kelle_default() -> Self {
        BankedLayout {
            total_banks: 32,
            row_bits: 128,
            per_bank_bandwidth_bytes_per_s: 8_000_000_000, // 8 GB/s x 32 banks = 256 GB/s
        }
    }

    /// The §8.3.7 ablation: half the banks with doubled per-bank capacity, so
    /// total capacity is unchanged but bandwidth halves to 128 GB/s.
    pub fn halved_banks(&self) -> Self {
        BankedLayout {
            total_banks: self.total_banks / 2,
            row_bits: self.row_bits,
            per_bank_bandwidth_bytes_per_s: self.per_bank_bandwidth_bytes_per_s,
        }
    }
}

impl Default for BankedLayout {
    fn default() -> Self {
        Self::kelle_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_layout_matches_paper() {
        let layout = BankedLayout::kelle_default();
        assert_eq!(layout.total_banks, 32);
        assert_eq!(
            layout.per_bank_bandwidth_bytes_per_s * layout.total_banks as u64,
            256_000_000_000
        );
    }

    #[test]
    fn halved_banks_halves_bandwidth_only() {
        let layout = BankedLayout::kelle_default();
        let halved = layout.halved_banks();
        assert_eq!(halved.total_banks, 16);
        assert_eq!(
            halved.per_bank_bandwidth_bytes_per_s,
            layout.per_bank_bandwidth_bytes_per_s
        );
        assert_eq!(halved.row_bits, layout.row_bits);
    }
}
