//! # kelle-edram
//!
//! Memory-device models for the Kelle reproduction: SRAM, 3T-eDRAM and
//! off-chip LPDDR4 DRAM, parameterised directly from the paper's Table 1 and
//! §8 configuration, plus the eDRAM-specific machinery Kelle depends on:
//!
//! * a **retention model** reproducing the retention-failure-rate vs
//!   refresh-interval curve of Fig. 4 (log-normal tail fit);
//! * **refresh policies**: the conservative per-retention-time refresh (`Org`),
//!   a uniform relaxed interval (`Uniform`), and the paper's
//!   **two-dimensional adaptive refresh policy (2DRP)** that assigns different
//!   intervals per token-importance group and per bit-significance group
//!   (§4.2), with refresh-energy/power accounting;
//! * the **banked KV-cache layout** of §5.1 (32 banks split across Key/Value ×
//!   MSB/LSB groups) with bandwidth and conflict accounting;
//! * the **eDRAM controller** (refresh + eviction controllers) that turns a
//!   policy and an occupancy trace into refresh-operation counts and energy;
//! * the **capacity ledger** ([`CapacityLedger`]) that arbitrates one shared
//!   eDRAM budget across concurrent serving sessions: checked admission
//!   reservations, unchecked decode-time growth, high-water and
//!   spill-to-DRAM (oversubscription) accounting;
//! * **per-tier accounting** ([`TierAccounts`]) for the eDRAM → DRAM → NVMe
//!   KV hierarchy: tier budgets, residency peaks and migration traffic —
//!   the byte-level truth behind `kelle::tier`'s watermark-credit placement.
//!
//! The original paper characterises its arrays with Destiny and Cacti at 65 nm
//! / 105 °C; neither tool is available here, so the models are analytical and
//! anchored to the numbers the paper itself reports (see `DESIGN.md` §2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod banks;
pub mod controller;
pub mod device;
pub mod faults;
pub mod ledger;
pub mod refresh;
pub mod retention;
pub mod tier;

pub use banks::{BankGroup, BankedLayout};
pub use controller::{EdramController, RefreshActivity};
pub use device::{DramSpec, MemorySpec, MemoryTechnology, NvmeSpec};
pub use faults::GroupBitFlipRates;
pub use ledger::{CapacityLedger, LeaseId, LedgerError};
pub use refresh::{RefreshIntervals, RefreshPolicy};
pub use retention::RetentionModel;
pub use tier::{MemoryTier, TierAccounts, TierBudgets, TierTraffic};
