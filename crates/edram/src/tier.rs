//! Per-tier byte accounting for the eDRAM → DRAM → NVMe KV hierarchy.
//!
//! The [`CapacityLedger`](crate::CapacityLedger) arbitrates *how many* KV
//! bytes are live; this module tracks *where* those bytes reside.  The
//! hierarchy has three tiers, fastest first:
//!
//! 1. **eDRAM** — the on-chip banked KV memory (scarce, the paper's co-design
//!    target);
//! 2. **DRAM** — the LPDDR4 channel ([`DramSpec`](crate::DramSpec));
//! 3. **NVMe** — a simulated edge flash drive
//!    ([`NvmeSpec`](crate::device::NvmeSpec)), the tier of last resort.
//!
//! [`TierAccounts`] is pure bookkeeping: per-tier budgets, per-tier resident
//! bytes with peak tracking, and cumulative migration bytes in and out of
//! every tier.  Placement *policy* (which item moves when) lives in
//! `kelle::tier`'s watermark-credit manager; migration *cost* (latency and
//! energy of moving bytes between tiers) is charged through the `kelle-arch`
//! hardware model.  Keeping the accounting here mirrors the ledger: the
//! device crate owns byte-level truth, the serving stack owns policy.

/// One tier of the KV memory hierarchy, fastest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemoryTier {
    /// On-chip banked KV eDRAM.
    Edram,
    /// Off-chip LPDDR4 DRAM.
    Dram,
    /// Simulated edge NVMe flash.
    Nvme,
}

impl MemoryTier {
    /// All tiers, fastest first.
    pub fn all() -> [MemoryTier; 3] {
        [MemoryTier::Edram, MemoryTier::Dram, MemoryTier::Nvme]
    }

    /// The next-slower tier, or `None` for the bottom of the hierarchy.
    pub fn slower(self) -> Option<MemoryTier> {
        match self {
            MemoryTier::Edram => Some(MemoryTier::Dram),
            MemoryTier::Dram => Some(MemoryTier::Nvme),
            MemoryTier::Nvme => None,
        }
    }

    /// Short display name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            MemoryTier::Edram => "edram",
            MemoryTier::Dram => "dram",
            MemoryTier::Nvme => "nvme",
        }
    }

    fn index(self) -> usize {
        match self {
            MemoryTier::Edram => 0,
            MemoryTier::Dram => 1,
            MemoryTier::Nvme => 2,
        }
    }
}

/// Byte budgets of the three tiers.
///
/// eDRAM and DRAM budgets are hard: the watermark rebalance demotes until
/// they hold.  NVMe is the bottom of the hierarchy, so rebalancing has
/// nowhere further to demote: its budget is `TierBudgets::NVME_BYTES`,
/// unbounded, and not a setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierBudgets {
    /// eDRAM tier budget in full-scale KV bytes.
    pub(crate) edram_bytes: u64,
    /// DRAM tier budget in full-scale KV bytes.
    pub(crate) dram_bytes: u64,
}

impl TierBudgets {
    /// The NVMe tier's budget: unbounded, since nothing lies below it.
    pub(crate) const NVME_BYTES: u64 = u64::MAX;

    /// Budgets with an explicit eDRAM bound, DRAM at 16 GiB and the
    /// unbounded NVMe bottom tier.
    ///
    /// # Panics
    ///
    /// Panics if `edram_bytes` is zero.
    pub fn with_edram(edram_bytes: u64) -> Self {
        assert!(edram_bytes > 0, "eDRAM tier budget must be non-zero");
        TierBudgets {
            edram_bytes,
            dram_bytes: 16 * 1024 * 1024 * 1024,
        }
    }

    /// Overrides the DRAM budget (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `dram_bytes` is zero.
    pub fn with_dram(mut self, dram_bytes: u64) -> Self {
        assert!(dram_bytes > 0, "DRAM tier budget must be non-zero");
        self.dram_bytes = dram_bytes;
        self
    }

    /// The budget of one tier.
    pub fn budget(&self, tier: MemoryTier) -> u64 {
        match tier {
            MemoryTier::Edram => self.edram_bytes,
            MemoryTier::Dram => self.dram_bytes,
            MemoryTier::Nvme => Self::NVME_BYTES,
        }
    }
}

/// Cumulative migration traffic of one tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierTraffic {
    /// Bytes migrated into the tier since construction.
    pub in_bytes: u64,
    /// Bytes migrated out of the tier since construction.
    pub out_bytes: u64,
}

/// Per-tier byte accounting: residency, peaks and migration traffic.
///
/// All operations are plain integer bookkeeping and panic on accounting
/// bugs (removing more bytes than resident), the same contract as the
/// [`CapacityLedger`](crate::CapacityLedger).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierAccounts {
    budgets: TierBudgets,
    resident: [u64; 3],
    peak: [u64; 3],
    traffic: [TierTraffic; 3],
    demotions: u64,
    promotions: u64,
}

impl TierAccounts {
    /// Empty accounts over the given budgets.
    pub fn new(budgets: TierBudgets) -> Self {
        TierAccounts {
            budgets,
            resident: [0; 3],
            peak: [0; 3],
            traffic: [TierTraffic::default(); 3],
            demotions: 0,
            promotions: 0,
        }
    }

    /// Bytes currently resident in `tier`.
    pub fn resident_bytes(&self, tier: MemoryTier) -> u64 {
        self.resident[tier.index()]
    }

    /// Peak bytes ever resident in `tier`.
    pub fn peak_bytes(&self, tier: MemoryTier) -> u64 {
        self.peak[tier.index()]
    }

    /// Cumulative migration traffic of `tier`.
    pub fn traffic(&self, tier: MemoryTier) -> TierTraffic {
        self.traffic[tier.index()]
    }

    /// Number of demotions (moves to a slower tier) performed.
    pub fn demotions(&self) -> u64 {
        self.demotions
    }

    /// Number of promotions (moves to a faster tier) performed.
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Bytes still free under `tier`'s budget (zero when over budget).
    pub(crate) fn free_bytes(&self, tier: MemoryTier) -> u64 {
        self.budgets
            .budget(tier)
            .saturating_sub(self.resident[tier.index()])
    }

    /// Whether placing `bytes` more in `tier` stays within its budget.
    pub fn fits(&self, tier: MemoryTier, bytes: u64) -> bool {
        bytes <= self.free_bytes(tier)
    }

    /// Total resident bytes across all tiers.
    pub fn total_resident_bytes(&self) -> u64 {
        self.resident.iter().sum()
    }

    /// Places newly allocated bytes in `tier` (no migration traffic — the
    /// bytes are created there, e.g. an admission prefill or decode growth
    /// landing in eDRAM).
    pub fn place(&mut self, tier: MemoryTier, bytes: u64) {
        let i = tier.index();
        self.resident[i] += bytes;
        self.peak[i] = self.peak[i].max(self.resident[i]);
    }

    /// Removes released bytes from `tier` (no migration traffic — the bytes
    /// are freed, e.g. a completed session's lease).
    ///
    /// # Panics
    ///
    /// Panics if `tier` holds fewer than `bytes` resident bytes.
    pub fn remove(&mut self, tier: MemoryTier, bytes: u64) {
        let i = tier.index();
        assert!(
            self.resident[i] >= bytes,
            "removing {bytes} bytes from {} which holds only {}",
            tier.name(),
            self.resident[i]
        );
        self.resident[i] -= bytes;
    }

    /// Migrates `bytes` from `from` to `to`, recording traffic on both tiers
    /// and counting a demotion or promotion by tier order.
    ///
    /// # Panics
    ///
    /// Panics if `from == to` or `from` holds fewer than `bytes`.
    pub fn migrate(&mut self, from: MemoryTier, to: MemoryTier, bytes: u64) {
        assert_ne!(from, to, "migration requires distinct tiers");
        self.remove(from, bytes);
        self.place(to, bytes);
        self.traffic[from.index()].out_bytes += bytes;
        self.traffic[to.index()].in_bytes += bytes;
        if to > from {
            self.demotions += 1;
        } else {
            self.promotions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_order_and_neighbours() {
        assert!(MemoryTier::Edram < MemoryTier::Dram);
        assert!(MemoryTier::Dram < MemoryTier::Nvme);
        assert_eq!(MemoryTier::Edram.slower(), Some(MemoryTier::Dram));
        assert_eq!(MemoryTier::Dram.slower(), Some(MemoryTier::Nvme));
        assert_eq!(MemoryTier::Nvme.slower(), None);
        assert_eq!(
            MemoryTier::all().map(MemoryTier::name),
            ["edram", "dram", "nvme"]
        );
    }

    #[test]
    fn budgets_builder_and_totals() {
        let budgets = TierBudgets::with_edram(4 << 20).with_dram(64 << 20);
        assert_eq!(budgets.budget(MemoryTier::Edram), 4 << 20);
        assert_eq!(budgets.budget(MemoryTier::Dram), 64 << 20);
        assert_eq!(budgets.budget(MemoryTier::Nvme), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "eDRAM tier budget must be non-zero")]
    fn zero_edram_budget_panics() {
        TierBudgets::with_edram(0);
    }

    #[test]
    fn place_grow_migrate_remove_roundtrip() {
        let mut accounts = TierAccounts::new(TierBudgets::with_edram(100).with_dram(200));
        accounts.place(MemoryTier::Edram, 80);
        assert_eq!(accounts.resident_bytes(MemoryTier::Edram), 80);
        assert_eq!(accounts.free_bytes(MemoryTier::Edram), 20);
        assert!(accounts.fits(MemoryTier::Edram, 20));
        assert!(!accounts.fits(MemoryTier::Edram, 21));

        accounts.place(MemoryTier::Edram, 40);
        assert_eq!(accounts.resident_bytes(MemoryTier::Edram), 120);
        assert_eq!(accounts.free_bytes(MemoryTier::Edram), 0);
        accounts.migrate(MemoryTier::Edram, MemoryTier::Dram, 50);
        assert_eq!(accounts.resident_bytes(MemoryTier::Edram), 70);
        assert_eq!(accounts.resident_bytes(MemoryTier::Dram), 50);
        assert_eq!(accounts.demotions(), 1);
        assert_eq!(accounts.traffic(MemoryTier::Dram).in_bytes, 50);
        assert_eq!(accounts.traffic(MemoryTier::Edram).out_bytes, 50);

        accounts.migrate(MemoryTier::Dram, MemoryTier::Edram, 50);
        assert_eq!(accounts.promotions(), 1);
        assert_eq!(accounts.resident_bytes(MemoryTier::Dram), 0);
        // Peaks remember the high-water marks.
        assert_eq!(accounts.peak_bytes(MemoryTier::Edram), 120);
        assert_eq!(accounts.peak_bytes(MemoryTier::Dram), 50);

        accounts.remove(MemoryTier::Edram, 120);
        assert_eq!(accounts.total_resident_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "removing 10 bytes from dram")]
    fn removing_unresident_bytes_panics() {
        let mut accounts = TierAccounts::new(TierBudgets::with_edram(100));
        accounts.remove(MemoryTier::Dram, 10);
    }

    #[test]
    #[should_panic(expected = "distinct tiers")]
    fn self_migration_panics() {
        let mut accounts = TierAccounts::new(TierBudgets::with_edram(100));
        accounts.place(MemoryTier::Edram, 10);
        accounts.migrate(MemoryTier::Edram, MemoryTier::Edram, 10);
    }
}
