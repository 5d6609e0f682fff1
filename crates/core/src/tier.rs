//! Tiered KV memory: eDRAM → DRAM → NVMe placement with watermark-credit
//! eviction.
//!
//! The paper's accelerator holds all live KV in a 4 MB banked eDRAM — scarce
//! enough that an edge fleet's total KV routinely exceeds it.  This module
//! turns the single-budget capacity model of [`crate::scheduler`] into a
//! three-tier **memory hierarchy**: KV state resides in on-chip eDRAM while
//! hot, is *demoted* to off-chip DRAM (and ultimately to a simulated NVMe
//! drive) as it cools, and is *promoted* back before its session decodes
//! again.
//!
//! # The accounting-overlay design
//!
//! Tiering is deliberately an **accounting and cost overlay**, not a data
//! mover: demotion and promotion move ledger residency between
//! [`TierAccounts`] tiers and charge migration latency/energy through the
//! `kelle-arch` hardware model
//! ([`MemorySubsystem::kv_migration_cost`]), while the functional KV state —
//! cache backends, fault RNGs, decode cursors — never moves.  Token streams,
//! probability bits and fault statistics under tiering are therefore
//! **bit-identical to an unlimited-eDRAM run by construction**, for every
//! cache policy and worker count; the integration suite asserts it anyway,
//! including forced mid-stream demote/promote round-trips.
//!
//! # Watermark-credit eviction
//!
//! Every resident item (a session's private KV lease, or a shared prefix
//! segment) earns a **credit**: predicted near-term utility per byte, where
//! utility decays exponentially with ticks since last touch
//! ([`WatermarkConfig::half_life_ticks`]).  Sessions are touched every
//! decode tick; segments are touched whenever a session attaches to them.
//! At the end of each scheduler tick the manager rebalances every bounded
//! tier, fastest first:
//!
//! 1. while the tier is over budget, demote the lowest-credit item to the
//!    next-slower tier;
//! 2. demote any further item whose credit sits below the tier's dynamic
//!    **watermark**;
//! 3. raise the watermark above the best credit evicted under pressure
//!    ([`WatermarkConfig::rise`]), or let it decay toward zero when the tier
//!    had room ([`WatermarkConfig::decay`]).
//!
//! The watermark is how the tier *learns* its admission bar: after a burst
//! of pressure, marginal items are demoted pre-emptively instead of
//! thrashing; in quiet periods the bar relaxes and the tier refills.  All
//! scoring is integer/f64 arithmetic over scheduler ticks — fully
//! deterministic, with item identity as the tie-break.
//!
//! # Scheduler protocol
//!
//! The [`BatchScheduler`](crate::BatchScheduler) drives the manager from the
//! coordinating thread only (workers never see it):
//!
//! * **admission** plans against the *eDRAM tier* budget (not the whole
//!   hierarchy), so the active set is sized to what the on-chip memory can
//!   actually hold;
//! * **promote-before-tick**: any active session demoted by an earlier
//!   rebalance is promoted back to eDRAM — with its migration cost charged —
//!   before its next decode step;
//! * **decode growth** lands in eDRAM (the session is resident there while
//!   decoding);
//! * **rebalance** runs after completions, so freed bytes are reflected
//!   before anything is demoted.
//!
//! Migration time and energy accumulate in [`TieringMetrics`] on the
//! [`BatchOutcome`](crate::BatchOutcome) — never in per-request hardware
//! reports or engine statistics, which keeps every existing equivalence
//! identity (batch stats = sum of sequential turns) intact.

use crate::chaos::MigrationFaults;
use kelle_arch::MemorySubsystem;
use kelle_edram::{MemoryTier, TierAccounts, TierBudgets};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Transfer attempts per migration before it is abandoned for the tick (the
/// item then stays on its source tier and the next rebalance or
/// promote-before-tick retries from scratch).
const MAX_MIGRATION_ATTEMPTS: u32 = 3;

/// Parameters of the watermark-credit eviction scheme.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WatermarkConfig {
    /// Relative margin the watermark rises above the best credit demoted
    /// under budget pressure (`0.1` = 10 % above it).
    pub rise: f64,
    /// Multiplicative decay applied to a tier's watermark every tick the
    /// tier rebalances without pressure (`0.5` halves it).
    pub decay: f64,
    /// Ticks for an untouched item's utility to halve.  Smaller values make
    /// idle items cold (and demoted) faster.
    pub half_life_ticks: f64,
}

impl Default for WatermarkConfig {
    fn default() -> Self {
        WatermarkConfig {
            rise: 0.1,
            decay: 0.5,
            half_life_ticks: 8.0,
        }
    }
}

/// Configuration of the tiered KV memory hierarchy.
///
/// Attach to a scheduler via
/// [`SchedulerConfig::with_tiering`](crate::SchedulerConfig::with_tiering).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TierConfig {
    /// Per-tier byte budgets (full-scale KV bytes, the ledger's unit).
    pub budgets: TierBudgets,
    /// Watermark-credit eviction parameters.
    pub watermark: WatermarkConfig,
}

impl TierConfig {
    /// A hierarchy bounded by `edram_bytes` on chip, with the default 16 GiB
    /// DRAM tier, an unbounded NVMe bottom tier and default watermark
    /// parameters.
    ///
    /// # Panics
    ///
    /// Panics if `edram_bytes` is zero.
    pub fn with_edram_budget(edram_bytes: u64) -> Self {
        TierConfig {
            budgets: TierBudgets::with_edram(edram_bytes),
            watermark: WatermarkConfig::default(),
        }
    }

    /// Overrides all tier budgets (builder style).
    pub fn with_budgets(mut self, budgets: TierBudgets) -> Self {
        self.budgets = budgets;
        self
    }

    /// Overrides the watermark parameters (builder style).
    pub fn with_watermark(mut self, watermark: WatermarkConfig) -> Self {
        self.watermark = watermark;
        self
    }
}

/// One tier's residency and migration-traffic summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierUsageMetrics {
    /// Peak bytes ever resident in the tier, including transient
    /// within-tick residency (promote-before-tick can briefly exceed the
    /// budget; the rebalance settles it back down).
    pub peak_bytes: u64,
    /// Peak bytes resident *after* a rebalance — the settled occupancy the
    /// budget actually bounds (≤ budget for eDRAM and DRAM whenever
    /// demotion had somewhere to go).
    pub settled_peak_bytes: u64,
    /// Bytes migrated into the tier.
    pub in_bytes: u64,
    /// Bytes migrated out of the tier.
    pub out_bytes: u64,
}

/// Batch-level tiering metrics, reported on
/// [`BatchOutcome::tiering`](crate::BatchOutcome::tiering).
///
/// All-zero (the `Default`) when tiering is disabled.  Migration time and
/// energy live *only* here: per-request hardware reports and
/// [`EngineStats`](crate::EngineStats) are untouched by tiering, so every
/// pre-tiering equivalence identity still holds bit-for-bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TieringMetrics {
    /// eDRAM tier usage.
    pub edram: TierUsageMetrics,
    /// DRAM tier usage.
    pub dram: TierUsageMetrics,
    /// NVMe tier usage.
    pub nvme: TierUsageMetrics,
    /// Demotions performed (moves toward slower tiers).
    pub demotions: u64,
    /// Promotions performed (moves toward faster tiers).
    pub promotions: u64,
    /// Total bytes migrated in either direction.
    pub migrated_bytes: u64,
    /// Modelled migration latency in seconds (sum over migrations; each
    /// migration overlaps its read and write interfaces).
    pub migration_time_s: f64,
    /// Modelled migration energy in joules (on-chip + DRAM/NVMe sides).
    pub migration_energy_j: f64,
    /// Transfer attempts that failed transiently and were retried (chaos
    /// injection only; each retry burns migration time/energy without
    /// moving bytes).  `#[serde(default)]` keeps pre-chaos serialized
    /// metrics loadable.
    #[serde(default)]
    pub migration_retries: u64,
    /// Migrations abandoned after exhausting their per-tick transfer
    /// attempts — the item stayed on its source tier for the tick.
    #[serde(default)]
    pub failed_migrations: u64,
}

impl TieringMetrics {
    /// Usage of one tier by enum (convenience for sweeps and tables).
    pub fn tier(&self, tier: MemoryTier) -> TierUsageMetrics {
        match tier {
            MemoryTier::Edram => self.edram,
            MemoryTier::Dram => self.dram,
            MemoryTier::Nvme => self.nvme,
        }
    }
}

/// Identity of a tiered item.  The `Ord` derive is the deterministic
/// tie-break for equal credits: sessions (by request index) before segments
/// (by ledger tag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ItemKey {
    /// A session's private KV lease, keyed by request index.
    Session(usize),
    /// A shared prefix segment, keyed by its ledger shared-pool tag.
    Segment(u64),
}

/// Placement state of one tiered item.
#[derive(Debug, Clone, Copy)]
struct TierItem {
    bytes: u64,
    tier: MemoryTier,
    last_touch: u64,
}

fn tier_index(tier: MemoryTier) -> usize {
    match tier {
        MemoryTier::Edram => 0,
        MemoryTier::Dram => 1,
        MemoryTier::Nvme => 2,
    }
}

/// The coordinator-owned tier placement manager.
///
/// Owned by the [`BatchScheduler`](crate::BatchScheduler) when
/// [`SchedulerConfig::tiering`](crate::SchedulerConfig::tiering) is set; all
/// mutation happens on the coordinating thread, in the deterministic order
/// the tick protocol dictates, so parallel serving observes identical
/// metrics.  The public surface is read-only.
#[derive(Debug)]
pub struct TierManager {
    config: TierConfig,
    accounts: TierAccounts,
    items: BTreeMap<ItemKey, TierItem>,
    /// Per-tier dynamic watermarks (eDRAM, DRAM; NVMe never demotes).
    watermarks: [f64; 2],
    /// Post-rebalance residency peaks per tier.
    settled_peak: [u64; 3],
    migrated_bytes: u64,
    migration_time_s: f64,
    migration_energy_j: f64,
    migration_retries: u64,
    failed_migrations: u64,
}

impl TierManager {
    /// An empty manager over the configured hierarchy.
    pub(crate) fn new(config: TierConfig) -> Self {
        TierManager {
            config,
            accounts: TierAccounts::new(config.budgets),
            items: BTreeMap::new(),
            watermarks: [0.0; 2],
            settled_peak: [0; 3],
            migrated_bytes: 0,
            migration_time_s: 0.0,
            migration_energy_j: 0.0,
            migration_retries: 0,
            failed_migrations: 0,
        }
    }

    /// The tiering configuration.
    pub fn config(&self) -> &TierConfig {
        &self.config
    }

    /// The byte-level truth: per-tier residency, peaks and traffic.
    pub fn accounts(&self) -> &TierAccounts {
        &self.accounts
    }

    /// Whether `bytes` more fit the eDRAM tier's budget right now — the
    /// admission gate (admission plans against the on-chip tier only).
    pub fn edram_fits(&self, bytes: u64) -> bool {
        self.accounts.fits(MemoryTier::Edram, bytes)
    }

    /// The tier a session's KV currently resides in.
    pub fn session_tier(&self, index: usize) -> Option<MemoryTier> {
        self.items.get(&ItemKey::Session(index)).map(|i| i.tier)
    }

    /// The tier a shared segment currently resides in.
    pub fn segment_tier(&self, tag: u64) -> Option<MemoryTier> {
        self.items.get(&ItemKey::Segment(tag)).map(|i| i.tier)
    }

    /// The current metrics snapshot (final values are taken at
    /// [`BatchScheduler::finish`](crate::BatchScheduler::finish)).
    pub fn metrics(&self) -> TieringMetrics {
        let usage = |tier: MemoryTier| TierUsageMetrics {
            peak_bytes: self.accounts.peak_bytes(tier),
            settled_peak_bytes: self.settled_peak[tier_index(tier)],
            in_bytes: self.accounts.traffic(tier).in_bytes,
            out_bytes: self.accounts.traffic(tier).out_bytes,
        };
        TieringMetrics {
            edram: usage(MemoryTier::Edram),
            dram: usage(MemoryTier::Dram),
            nvme: usage(MemoryTier::Nvme),
            demotions: self.accounts.demotions(),
            promotions: self.accounts.promotions(),
            migrated_bytes: self.migrated_bytes,
            migration_time_s: self.migration_time_s,
            migration_energy_j: self.migration_energy_j,
            migration_retries: self.migration_retries,
            failed_migrations: self.failed_migrations,
        }
    }

    /// Places a newly admitted session's private lease in eDRAM.
    pub(crate) fn place_session(&mut self, index: usize, bytes: u64, tick: u64) {
        self.place(ItemKey::Session(index), bytes, tick);
    }

    /// Places a newly charged shared segment in eDRAM.
    pub(crate) fn place_segment(&mut self, tag: u64, bytes: u64, tick: u64) {
        self.place(ItemKey::Segment(tag), bytes, tick);
    }

    fn place(&mut self, key: ItemKey, bytes: u64, tick: u64) {
        debug_assert!(!self.items.contains_key(&key), "item placed twice");
        self.accounts.place(MemoryTier::Edram, bytes);
        self.items.insert(
            key,
            TierItem {
                bytes,
                tier: MemoryTier::Edram,
                last_touch: tick,
            },
        );
    }

    /// Marks a dedup attachment of an already-charged segment: the segment
    /// is being replayed into the attaching session, so it is touched and —
    /// if a rebalance demoted it — promoted back to eDRAM with its
    /// migration cost charged.
    pub(crate) fn touch_segment(
        &mut self,
        tag: u64,
        memory: &MemorySubsystem,
        tick: u64,
        faults: Option<&mut dyn MigrationFaults>,
    ) {
        self.promote(ItemKey::Segment(tag), memory, tick, faults);
    }

    /// Promote-before-tick: an active session decodes out of eDRAM, so a
    /// demoted session is migrated back up (cost charged) before its step.
    pub(crate) fn promote_session(
        &mut self,
        index: usize,
        memory: &MemorySubsystem,
        tick: u64,
        faults: Option<&mut dyn MigrationFaults>,
    ) {
        self.promote(ItemKey::Session(index), memory, tick, faults);
    }

    fn promote(
        &mut self,
        key: ItemKey,
        memory: &MemorySubsystem,
        tick: u64,
        faults: Option<&mut dyn MigrationFaults>,
    ) {
        let Some(item) = self.items.get_mut(&key) else {
            return;
        };
        item.last_touch = tick;
        let from = item.tier;
        if from == MemoryTier::Edram {
            return;
        }
        let bytes = item.bytes;
        if !self.migration_succeeds(memory, from, MemoryTier::Edram, bytes, faults) {
            // Graceful degradation: the item keeps serving from its source
            // tier this tick; the next touch retries the promotion.
            return;
        }
        self.items
            .get_mut(&key)
            .expect("promoted item resolves")
            .tier = MemoryTier::Edram;
        self.accounts.migrate(from, MemoryTier::Edram, bytes);
        self.charge_migration(memory, from, MemoryTier::Edram, bytes);
    }

    /// Accounts a session's decode-time KV growth (lands on the session's
    /// current tier — eDRAM, since sessions are promoted before decoding).
    pub(crate) fn note_growth(&mut self, index: usize, grown: u64, tick: u64) {
        let Some(item) = self.items.get_mut(&ItemKey::Session(index)) else {
            return;
        };
        item.last_touch = tick;
        if grown > 0 {
            item.bytes += grown;
            self.accounts.place(item.tier, grown);
        }
    }

    /// Releases a completed session's bytes from its current tier.
    pub(crate) fn remove_session(&mut self, index: usize) {
        self.remove(ItemKey::Session(index));
    }

    /// Releases a shared segment whose last session detached.
    pub(crate) fn remove_segment(&mut self, tag: u64) {
        self.remove(ItemKey::Segment(tag));
    }

    fn remove(&mut self, key: ItemKey) {
        if let Some(item) = self.items.remove(&key) {
            self.accounts.remove(item.tier, item.bytes);
        }
    }

    /// Predicted near-term utility per byte: recency-decayed value density.
    fn credit(&self, item: &TierItem, tick: u64) -> f64 {
        let age = tick.saturating_sub(item.last_touch) as f64;
        let utility = 0.5_f64.powf(age / self.config.watermark.half_life_ticks.max(1e-9));
        utility / item.bytes.max(1) as f64
    }

    /// End-of-tick rebalance: demote under budget pressure and below the
    /// watermark, cascade eDRAM → DRAM → NVMe, then update watermarks and
    /// settled peaks (see the [module docs](self) for the scheme).  A
    /// migration the fault injector kills (after its per-tick retries) is
    /// skipped — the item stays put and the next rebalance reconsiders it.
    pub(crate) fn rebalance(
        &mut self,
        tick: u64,
        memory: &MemorySubsystem,
        mut faults: Option<&mut dyn MigrationFaults>,
    ) {
        for tier in [MemoryTier::Edram, MemoryTier::Dram] {
            let target = tier.slower().expect("bounded tiers have a slower tier");
            let budget = self.config.budgets.budget(tier);
            let mut candidates: Vec<(f64, ItemKey, u64)> = self
                .items
                .iter()
                .filter(|(_, item)| item.tier == tier && item.bytes > 0)
                .map(|(key, item)| (self.credit(item, tick), *key, item.bytes))
                .collect();
            candidates.sort_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .expect("credits are finite")
                    .then(a.1.cmp(&b.1))
            });
            let wi = tier_index(tier);
            let mut pressure_credit: Option<f64> = None;
            for (credit, key, bytes) in candidates {
                let over_budget = self.accounts.resident_bytes(tier) > budget;
                let below_watermark = credit < self.watermarks[wi];
                if !over_budget && !below_watermark {
                    break;
                }
                let reborrowed: Option<&mut dyn MigrationFaults> = match faults.as_mut() {
                    Some(injector) => Some(&mut **injector),
                    None => None,
                };
                if !self.migration_succeeds(memory, tier, target, bytes, reborrowed) {
                    // The demotion's transfer failed transiently: skip this
                    // candidate (its bytes stay resident here) and keep
                    // scanning — a smaller or luckier item may still
                    // relieve the pressure.
                    continue;
                }
                if over_budget {
                    pressure_credit = Some(credit);
                }
                self.items
                    .get_mut(&key)
                    .expect("candidate key resolves")
                    .tier = target;
                self.accounts.migrate(tier, target, bytes);
                self.charge_migration(memory, tier, target, bytes);
            }
            self.watermarks[wi] = match pressure_credit {
                Some(credit) => credit * (1.0 + self.config.watermark.rise),
                None => self.watermarks[wi] * self.config.watermark.decay,
            };
        }
        for tier in MemoryTier::all() {
            let i = tier_index(tier);
            self.settled_peak[i] = self.settled_peak[i].max(self.accounts.resident_bytes(tier));
        }
    }

    /// Runs a migration's transfer attempts against the fault injector.
    /// Without an injector the transfer succeeds immediately and for free;
    /// every *failed* attempt burns the migration's full time and energy
    /// (the bytes crossed the interface and were thrown away) without
    /// moving residency.
    fn migration_succeeds(
        &mut self,
        memory: &MemorySubsystem,
        from: MemoryTier,
        to: MemoryTier,
        bytes: u64,
        faults: Option<&mut dyn MigrationFaults>,
    ) -> bool {
        let Some(faults) = faults else {
            return true;
        };
        for _ in 0..MAX_MIGRATION_ATTEMPTS {
            if !faults.migration_fails(from, to, bytes) {
                return true;
            }
            self.migration_retries += 1;
            self.charge_attempt(memory, from, to, bytes);
        }
        self.failed_migrations += 1;
        false
    }

    /// Charges one transfer's time and energy without moving any bytes.
    fn charge_attempt(
        &mut self,
        memory: &MemorySubsystem,
        from: MemoryTier,
        to: MemoryTier,
        bytes: u64,
    ) {
        let cost = memory.kv_migration_cost(from, to, bytes);
        self.migration_time_s += cost.time_s;
        self.migration_energy_j += cost.onchip_energy_j + cost.dram_energy_j;
    }

    fn charge_migration(
        &mut self,
        memory: &MemorySubsystem,
        from: MemoryTier,
        to: MemoryTier,
        bytes: u64,
    ) {
        self.migrated_bytes += bytes;
        self.charge_attempt(memory, from, to, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memory() -> MemorySubsystem {
        MemorySubsystem::kelle_default()
    }

    fn manager(edram: u64) -> TierManager {
        TierManager::new(TierConfig::with_edram_budget(edram))
    }

    #[test]
    fn admission_gate_tracks_edram_budget() {
        let mut tiers = manager(100);
        assert!(tiers.edram_fits(100));
        tiers.place_session(0, 60, 0);
        assert!(tiers.edram_fits(40));
        assert!(!tiers.edram_fits(41));
        tiers.remove_session(0);
        assert!(tiers.edram_fits(100));
    }

    #[test]
    fn over_budget_session_is_demoted_then_promoted_back() {
        let mem = memory();
        let mut tiers = manager(100);
        tiers.place_session(0, 150, 0);
        assert_eq!(tiers.session_tier(0), Some(MemoryTier::Edram));

        tiers.rebalance(1, &mem, None);
        assert_eq!(tiers.session_tier(0), Some(MemoryTier::Dram));
        assert_eq!(tiers.accounts().resident_bytes(MemoryTier::Edram), 0);

        tiers.promote_session(0, &mem, 2, None);
        assert_eq!(tiers.session_tier(0), Some(MemoryTier::Edram));
        let metrics = tiers.metrics();
        assert_eq!(metrics.demotions, 1);
        assert_eq!(metrics.promotions, 1);
        assert_eq!(metrics.migrated_bytes, 300);
        assert!(metrics.migration_time_s > 0.0);
        assert!(metrics.migration_energy_j > 0.0);
        // The round trip shows on both tiers' traffic.
        assert_eq!(metrics.edram.out_bytes, 150);
        assert_eq!(metrics.edram.in_bytes, 150);
        assert_eq!(metrics.dram.in_bytes, 150);
        assert_eq!(metrics.dram.out_bytes, 150);
    }

    #[test]
    fn lowest_credit_items_are_demoted_first() {
        let mem = memory();
        let mut tiers = manager(100);
        // Session 0 is old and large (lowest credit); session 1 fresh and
        // small.
        tiers.place_session(0, 80, 0);
        tiers.place_session(1, 40, 10);
        tiers.rebalance(10, &mem, None);
        assert_eq!(tiers.session_tier(0), Some(MemoryTier::Dram));
        assert_eq!(tiers.session_tier(1), Some(MemoryTier::Edram));
        assert!(tiers.accounts().resident_bytes(MemoryTier::Edram) <= 100);
    }

    #[test]
    fn demotion_cascades_through_dram_to_nvme() {
        let mem = memory();
        let mut tiers = TierManager::new(
            TierConfig::with_edram_budget(100)
                .with_budgets(TierBudgets::with_edram(100).with_dram(50)),
        );
        // Too big for eDRAM *and* DRAM: one rebalance pushes it down one
        // level per bounded tier — eDRAM demotes to DRAM, DRAM's own pass
        // then demotes to NVMe.
        tiers.place_session(0, 200, 0);
        tiers.rebalance(1, &mem, None);
        assert_eq!(tiers.session_tier(0), Some(MemoryTier::Nvme));
        assert_eq!(tiers.metrics().demotions, 2);
        assert_eq!(tiers.metrics().nvme.in_bytes, 200);
    }

    #[test]
    fn watermark_rises_under_pressure_and_decays_when_idle() {
        let mem = memory();
        let mut tiers = manager(100);
        tiers.place_session(0, 150, 0);
        tiers.rebalance(1, &mem, None); // pressure: watermark rises above 1/150
        let metrics_after_pressure = tiers.metrics();
        assert_eq!(metrics_after_pressure.demotions, 1);
        // A fresh small session now sits above the watermark and survives,
        // and the empty-tier rebalance decays the watermark back down.
        tiers.place_session(1, 10, 2);
        tiers.rebalance(2, &mem, None);
        assert_eq!(tiers.session_tier(1), Some(MemoryTier::Edram));
        for _ in 3..10 {
            tiers.rebalance(3, &mem, None);
        }
        assert_eq!(
            tiers.metrics().demotions,
            metrics_after_pressure.demotions,
            "no further demotions once the watermark decays"
        );
    }

    #[test]
    fn growth_lands_on_the_current_tier_and_touch_promotes_segments() {
        let mem = memory();
        let mut tiers = manager(1000);
        tiers.place_segment(7, 100, 0);
        tiers.note_growth(3, 10, 0); // unknown session: ignored
        tiers.place_session(3, 50, 0);
        tiers.note_growth(3, 10, 1);
        assert_eq!(tiers.accounts().resident_bytes(MemoryTier::Edram), 160);

        // Force the segment down, then a dedup attach touches it back up.
        let mut small = manager(10);
        small.place_segment(7, 100, 0);
        small.rebalance(1, &mem, None);
        assert_eq!(small.segment_tier(7), Some(MemoryTier::Dram));
        small.touch_segment(7, &mem, 2, None);
        assert_eq!(small.segment_tier(7), Some(MemoryTier::Edram));
        assert_eq!(small.metrics().promotions, 1);
        small.remove_segment(7);
        assert_eq!(small.accounts().total_resident_bytes(), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random fleets, budgets and rebalance schedules: bytes are
        /// conserved, bounded tiers never settle over budget, and promoting
        /// everything back restores the all-eDRAM residency exactly.
        #[test]
        fn accounting_is_conserved_and_round_trips_restore_residency(
            edram in 1u64..500,
            sizes in proptest::collection::vec(1u64..200, 1..8),
            ticks in 1u64..12,
        ) {
            use proptest::prelude::{prop_assert, prop_assert_eq};
            let mem = memory();
            let mut tiers = manager(edram);
            let total: u64 = sizes.iter().sum();
            for (i, &bytes) in sizes.iter().enumerate() {
                tiers.place_session(i, bytes, 0);
            }
            for tick in 1..=ticks {
                tiers.rebalance(tick, &mem, None);
                prop_assert!(tiers.accounts().resident_bytes(MemoryTier::Edram) <= edram);
                prop_assert!(
                    tiers.accounts().resident_bytes(MemoryTier::Dram)
                        <= tiers.config().budgets.budget(MemoryTier::Dram)
                );
                prop_assert_eq!(tiers.accounts().total_resident_bytes(), total);
            }
            // Demote→promote round trips restore the placement exactly.
            for i in 0..sizes.len() {
                tiers.promote_session(i, &mem, ticks + 1, None);
            }
            prop_assert_eq!(tiers.accounts().resident_bytes(MemoryTier::Edram), total);
            prop_assert_eq!(tiers.accounts().resident_bytes(MemoryTier::Dram), 0);
            prop_assert_eq!(tiers.accounts().resident_bytes(MemoryTier::Nvme), 0);
            // Migration traffic is conserved: bytes out of one tier landed
            // in another, and the total is what the metrics report.
            let metrics = tiers.metrics();
            let out_total = metrics.edram.out_bytes + metrics.dram.out_bytes + metrics.nvme.out_bytes;
            let in_total = metrics.edram.in_bytes + metrics.dram.in_bytes + metrics.nvme.in_bytes;
            prop_assert_eq!(out_total, in_total);
            prop_assert_eq!(metrics.migrated_bytes, out_total);
        }
    }

    /// Fails the first `failures` transfer draws, then succeeds forever.
    struct FlakyTransfers {
        failures: u32,
        draws: u32,
    }

    impl MigrationFaults for FlakyTransfers {
        fn migration_fails(&mut self, _: MemoryTier, _: MemoryTier, _: u64) -> bool {
            self.draws += 1;
            self.draws <= self.failures
        }
    }

    #[test]
    fn transient_migration_faults_retry_and_charge_without_moving_bytes() {
        let mem = memory();
        let mut tiers = manager(100);
        tiers.place_session(0, 150, 0);
        // Two transient failures: the demotion still lands on the third
        // attempt, with the two wasted transfers charged on top.
        let mut flaky = FlakyTransfers {
            failures: 2,
            draws: 0,
        };
        tiers.rebalance(1, &mem, Some(&mut flaky));
        assert_eq!(tiers.session_tier(0), Some(MemoryTier::Dram));
        let metrics = tiers.metrics();
        assert_eq!(metrics.migration_retries, 2);
        assert_eq!(metrics.failed_migrations, 0);
        assert_eq!(metrics.migrated_bytes, 150, "only the success moved bytes");
        let clean_cost = {
            let mut clean = manager(100);
            clean.place_session(0, 150, 0);
            clean.rebalance(1, &mem, None);
            clean.metrics().migration_time_s
        };
        assert!(
            metrics.migration_time_s > clean_cost * 2.9,
            "three transfers were paid for one migration"
        );
    }

    #[test]
    fn exhausted_migration_attempts_degrade_to_the_source_tier() {
        let mem = memory();
        let mut tiers = manager(100);
        tiers.place_session(0, 150, 0);
        let mut dead = FlakyTransfers {
            failures: u32::MAX,
            draws: 0,
        };
        tiers.rebalance(1, &mem, Some(&mut dead));
        // The demotion was abandoned: the session stays (over budget) in
        // eDRAM and the accounts still conserve bytes.
        assert_eq!(tiers.session_tier(0), Some(MemoryTier::Edram));
        assert_eq!(tiers.accounts().total_resident_bytes(), 150);
        let metrics = tiers.metrics();
        assert_eq!(metrics.failed_migrations, 1);
        assert_eq!(metrics.migration_retries, MAX_MIGRATION_ATTEMPTS as u64);
        assert_eq!(metrics.migrated_bytes, 0);
        assert_eq!(metrics.demotions, 0);

        // A later fault-free rebalance recovers and demotes normally.
        tiers.rebalance(2, &mem, None);
        assert_eq!(tiers.session_tier(0), Some(MemoryTier::Dram));
        assert_eq!(tiers.accounts().total_resident_bytes(), 150);
    }

    #[test]
    fn failed_promotion_leaves_the_session_serving_from_dram() {
        let mem = memory();
        let mut tiers = manager(100);
        tiers.place_session(0, 150, 0);
        tiers.rebalance(1, &mem, None);
        assert_eq!(tiers.session_tier(0), Some(MemoryTier::Dram));
        let mut dead = FlakyTransfers {
            failures: u32::MAX,
            draws: 0,
        };
        tiers.promote_session(0, &mem, 2, Some(&mut dead));
        assert_eq!(
            tiers.session_tier(0),
            Some(MemoryTier::Dram),
            "failed promotion degrades gracefully"
        );
        assert_eq!(tiers.metrics().failed_migrations, 1);
        // The next (healthy) promote-before-tick recovers.
        tiers.promote_session(0, &mem, 3, None);
        assert_eq!(tiers.session_tier(0), Some(MemoryTier::Edram));
    }

    #[test]
    fn settled_peak_respects_budget_when_demotion_has_room() {
        let mem = memory();
        let mut tiers = manager(100);
        for i in 0..5 {
            tiers.place_session(i, 60, i as u64);
        }
        for tick in 1..6 {
            tiers.rebalance(tick, &mem, None);
        }
        let metrics = tiers.metrics();
        assert!(metrics.edram.settled_peak_bytes <= 100);
        assert!(metrics.edram.peak_bytes >= metrics.edram.settled_peak_bytes);
    }
}
