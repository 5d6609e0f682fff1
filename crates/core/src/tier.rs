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
//! cache backends, fault injectors, decode cursors — never moves.  Token streams,
//! probability bits and fault statistics under tiering are therefore
//! **bit-identical to an unlimited-eDRAM run by construction**, for every
//! cache policy and worker count; the integration suite asserts it anyway,
//! including forced mid-stream demote/promote round-trips.
//!
//! # Watermark-credit eviction
//!
//! Every resident item (a session's private KV lease, or a shared prefix
//! segment) earns a **credit**: predicted near-term utility per byte, where
//! utility halves every 8 ticks since last touch.  Sessions are touched
//! every decode tick; segments are touched whenever a session attaches to
//! them.
//! At the end of each scheduler tick the manager rebalances every bounded
//! tier, fastest first:
//!
//! 1. while the tier is over budget, demote the lowest-credit item to the
//!    next-slower tier;
//! 2. demote any further item whose credit sits below the tier's dynamic
//!    **watermark**;
//! 3. raise the watermark above the best credit evicted under pressure
//!    (by 10 %), or let it halve toward zero when the tier had room.
//!
//! The watermark is how the tier *learns* its admission bar: after a burst
//! of pressure, marginal items are demoted pre-emptively instead of
//! thrashing; in quiet periods the bar relaxes and the tier refills.  All
//! scoring is integer/f64 arithmetic over scheduler ticks — fully
//! deterministic, with item identity as the tie-break.
//!
//! # The residency owner
//!
//! `KvPlacement` is the scheduler's one owner of *where KV bytes live*: it
//! holds the [`CapacityLedger`] (how many bytes are live) and, when tiering is
//! on, the [`TierManager`] (which tier they sit in), and every residency
//! decision of a tick goes through it, on the coordinating thread only
//! (workers never see it):
//!
//! * **fit** — a waiting request fits when the ledger can host its new
//!   charge (its private bytes, plus its shared prefix unless another session
//!   already charged it) *and*, under tiering, so can the eDRAM tier:
//!   admission plans against the on-chip budget, not the whole hierarchy;
//! * **admit** — opens the request's lease, places it in eDRAM and attaches
//!   its shared prefix: the first attachment of a residency period places
//!   the segment, a dedup attachment touches it (promoting it back on chip
//!   if a rebalance had demoted it);
//! * **promote** — promote-before-tick: an active session demoted by an
//!   earlier rebalance migrates back to eDRAM, its cost charged, before its
//!   next decode step;
//! * **grow** — a tick's decode growth lands on the ledger as one commit and
//!   on each session's tier (eDRAM, thanks to promote-before-tick) as a touch;
//! * **release** — a finalized request releases its lease, leaves its tier
//!   and detaches its shared prefix; the last detach takes the segment off
//!   its tier too;
//! * **settle** — the rebalance runs at the end of the tick, after
//!   completions freed their bytes, so the admission back-fill sees the
//!   settled occupancy.
//!
//! The [`TierManager`] prices migrations with the platform's
//! [`MemorySubsystem`] and draws transient migration faults from its own
//! clone of the scheduler's `ChaosPlan`, both handed over at construction.
//!
//! Migration time and energy accumulate in [`TieringMetrics`] on the
//! [`BatchOutcome`](crate::BatchOutcome) — never in per-request hardware
//! reports or engine statistics, which keeps every existing equivalence
//! identity (batch stats = sum of sequential turns) intact.

use crate::chaos::ChaosPlan;
use kelle_arch::MemorySubsystem;
use kelle_edram::{CapacityLedger, LeaseId, MemoryTier, TierAccounts, TierBudgets};
use std::collections::BTreeMap;

/// Transfer attempts per migration before it is abandoned for the tick (the
/// item then stays on its source tier and the next rebalance or
/// promote-before-tick retries from scratch).
const MAX_MIGRATION_ATTEMPTS: u32 = 3;

/// Relative margin a tier's watermark rises above the best credit demoted
/// under budget pressure (10 % above it).
const WATERMARK_RISE: f64 = 0.1;

/// Multiplicative decay applied to a tier's watermark every tick the tier
/// rebalances without pressure (halves it).
const WATERMARK_DECAY: f64 = 0.5;

/// Ticks for an untouched item's utility to halve.
const HALF_LIFE_TICKS: f64 = 8.0;

/// Configuration of the tiered KV memory hierarchy.
///
/// Attach to a scheduler via
/// [`SchedulerConfig::with_tiering`](crate::SchedulerConfig::with_tiering).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierConfig {
    /// Per-tier byte budgets (full-scale KV bytes, the ledger's unit).
    pub budgets: TierBudgets,
}

impl TierConfig {
    /// A hierarchy bounded by `edram_bytes` on chip, with the default 16 GiB
    /// DRAM tier and an unbounded NVMe bottom tier.
    ///
    /// # Panics
    ///
    /// Panics if `edram_bytes` is zero.
    pub fn with_edram_budget(edram_bytes: u64) -> Self {
        TierConfig {
            budgets: TierBudgets::with_edram(edram_bytes),
        }
    }

    /// Overrides all tier budgets (builder style).
    pub fn with_budgets(mut self, budgets: TierBudgets) -> Self {
        self.budgets = budgets;
        self
    }
}

/// One tier's residency and migration-traffic summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, Default, PartialEq)]
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
    /// moving bytes).
    pub migration_retries: u64,
    /// Migrations abandoned after exhausting their per-tick transfer
    /// attempts — the item stayed on its source tier for the tick.
    pub failed_migrations: u64,
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

/// The tier placement manager.
///
/// Owned by the scheduler's residency owner (`KvPlacement`) when
/// `SchedulerConfig::tiering` is set; all
/// mutation happens on the coordinating thread, in the deterministic order
/// the tick protocol dictates, so parallel serving observes identical
/// metrics.  The public surface is read-only.
#[derive(Debug)]
pub struct TierManager {
    config: TierConfig,
    /// Prices every migration attempt.
    memory: MemorySubsystem,
    /// Transient migration faults (`None`: every transfer succeeds).
    faults: Option<ChaosPlan>,
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
    /// An empty manager over the configured hierarchy, pricing migrations
    /// with `memory` and drawing their faults from `faults`.
    fn new(config: TierConfig, memory: MemorySubsystem, faults: Option<ChaosPlan>) -> Self {
        TierManager {
            config,
            memory,
            faults,
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

    /// Whether `bytes` more fit the eDRAM tier's budget right now — the
    /// admission gate (admission plans against the on-chip tier only).
    pub(crate) fn edram_fits(&self, bytes: u64) -> bool {
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
    pub(crate) fn metrics(&self) -> TieringMetrics {
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
    fn place_session(&mut self, index: usize, bytes: u64, tick: u64) {
        self.place(ItemKey::Session(index), bytes, tick);
    }

    /// Places a newly charged shared segment in eDRAM.
    fn place_segment(&mut self, tag: u64, bytes: u64, tick: u64) {
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
    fn touch_segment(&mut self, tag: u64, tick: u64) {
        self.promote(ItemKey::Segment(tag), tick);
    }

    /// Promote-before-tick: an active session decodes out of eDRAM, so a
    /// demoted session is migrated back up (cost charged) before its step.
    fn promote_session(&mut self, index: usize, tick: u64) {
        self.promote(ItemKey::Session(index), tick);
    }

    fn promote(&mut self, key: ItemKey, tick: u64) {
        let Some(item) = self.items.get_mut(&key) else {
            return;
        };
        item.last_touch = tick;
        let from = item.tier;
        if from == MemoryTier::Edram {
            return;
        }
        let bytes = item.bytes;
        if !self.migration_succeeds(from, MemoryTier::Edram, bytes) {
            // Graceful degradation: the item keeps serving from its source
            // tier this tick; the next touch retries the promotion.
            return;
        }
        self.items
            .get_mut(&key)
            .expect("promoted item resolves")
            .tier = MemoryTier::Edram;
        self.accounts.migrate(from, MemoryTier::Edram, bytes);
        self.charge_migration(from, MemoryTier::Edram, bytes);
    }

    /// Accounts a session's decode-time KV growth (lands on the session's
    /// current tier — eDRAM, since sessions are promoted before decoding).
    fn note_growth(&mut self, index: usize, grown: u64, tick: u64) {
        let Some(item) = self.items.get_mut(&ItemKey::Session(index)) else {
            return;
        };
        item.last_touch = tick;
        if grown > 0 {
            item.bytes += grown;
            self.accounts.place(item.tier, grown);
        }
    }

    /// Releases a finalized session's bytes from its current tier.
    fn remove_session(&mut self, index: usize) {
        self.remove(ItemKey::Session(index));
    }

    /// Releases a shared segment whose last session detached.
    fn remove_segment(&mut self, tag: u64) {
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
        let utility = 0.5_f64.powf(age / HALF_LIFE_TICKS);
        utility / item.bytes.max(1) as f64
    }

    /// End-of-tick rebalance: demote under budget pressure and below the
    /// watermark, cascade eDRAM → DRAM → NVMe, then update watermarks and
    /// settled peaks (see the [module docs](self) for the scheme).  A
    /// migration the fault plan kills (after its per-tick retries) is
    /// skipped — the item stays put and the next rebalance reconsiders it.
    fn rebalance(&mut self, tick: u64) {
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
                if !self.migration_succeeds(tier, target, bytes) {
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
                self.charge_migration(tier, target, bytes);
            }
            self.watermarks[wi] = match pressure_credit {
                Some(credit) => credit * (1.0 + WATERMARK_RISE),
                None => self.watermarks[wi] * WATERMARK_DECAY,
            };
        }
        for tier in MemoryTier::all() {
            let i = tier_index(tier);
            self.settled_peak[i] = self.settled_peak[i].max(self.accounts.resident_bytes(tier));
        }
    }

    /// Runs a migration's transfer attempts against the fault plan.  Without
    /// one the transfer succeeds immediately and for free; every *failed*
    /// attempt burns the migration's full time and energy (the bytes crossed
    /// the interface and were thrown away) without moving residency.
    fn migration_succeeds(&mut self, from: MemoryTier, to: MemoryTier, bytes: u64) -> bool {
        for _ in 0..MAX_MIGRATION_ATTEMPTS {
            if !self.faults.as_mut().is_some_and(ChaosPlan::migration_fails) {
                return true;
            }
            self.migration_retries += 1;
            self.charge_attempt(from, to, bytes);
        }
        self.failed_migrations += 1;
        false
    }

    /// Charges one transfer's time and energy without moving any bytes.
    fn charge_attempt(&mut self, from: MemoryTier, to: MemoryTier, bytes: u64) {
        let cost = self.memory.kv_migration_cost(from, to, bytes);
        self.migration_time_s += cost.time_s;
        self.migration_energy_j += cost.onchip_energy_j + cost.dram_energy_j;
    }

    fn charge_migration(&mut self, from: MemoryTier, to: MemoryTier, bytes: u64) {
        self.migrated_bytes += bytes;
        self.charge_attempt(from, to, bytes);
    }
}

/// Admission sizing of a waiting request: the bytes it will hold privately
/// plus the shared-prefix attachment it will make (charged once across the
/// batch).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Footprint {
    pub(crate) private_bytes: u64,
    /// `(tag, bytes)` of the prefix the request will attach to.
    pub(crate) shared: Option<(u64, u64)>,
}

/// The scheduler's one owner of where KV bytes live: the capacity ledger and,
/// under tiering, the tier manager (see the [module docs](self) for its
/// operations).
#[derive(Debug)]
pub(crate) struct KvPlacement {
    ledger: CapacityLedger,
    tiers: Option<TierManager>,
    /// Full-scale bytes charged to the shared pool: one charge per prefix
    /// residency period.
    shared_charged_bytes: u64,
}

impl KvPlacement {
    /// The placement of a scheduler arbitrating `kv_capacity_bytes` (`None`:
    /// unbounded) over an optional tier hierarchy.  An unbounded scheduler
    /// still runs the ledger (at `u64::MAX` capacity) so high-water
    /// accounting works identically in both modes.  Under tiering the ledger
    /// is unbounded too: eDRAM scarcity is the tier manager's job, and the
    /// NVMe bottom tier has no bound, so per-request grants and spill stay
    /// identical to an unlimited run and only migration costs differ.
    pub(crate) fn new(
        kv_capacity_bytes: Option<u64>,
        tiering: Option<TierConfig>,
        memory: &MemorySubsystem,
        chaos: Option<&ChaosPlan>,
    ) -> Self {
        let ledger = match (kv_capacity_bytes, &tiering) {
            (Some(bytes), _) => CapacityLedger::new(bytes),
            (None, _) => CapacityLedger::new(u64::MAX),
        };
        KvPlacement {
            ledger,
            tiers: tiering.map(|config| TierManager::new(config, memory.clone(), chaos.cloned())),
            shared_charged_bytes: 0,
        }
    }

    /// The capacity ledger.
    pub(crate) fn ledger(&self) -> &CapacityLedger {
        &self.ledger
    }

    /// The tier manager, when tiering is enabled.
    pub(crate) fn tiers(&self) -> Option<&TierManager> {
        self.tiers.as_ref()
    }

    /// The tiering metrics (all zeros when tiering is disabled).
    pub(crate) fn tiering_metrics(&self) -> TieringMetrics {
        self.tiers
            .as_ref()
            .map(TierManager::metrics)
            .unwrap_or_default()
    }

    /// Full-scale bytes charged to the shared pool so far.
    pub(crate) fn shared_charged_bytes(&self) -> u64 {
        self.shared_charged_bytes
    }

    /// Whether admitting `footprint` fits right now: the ledger must host
    /// its new charge — the private bytes, plus the shared prefix only if no
    /// other session charged it yet — and, under tiering, so must the eDRAM
    /// tier (demoted bytes don't count against it).
    pub(crate) fn fits(&self, footprint: &Footprint) -> bool {
        let shared_charge = match footprint.shared {
            Some((tag, bytes)) if !self.ledger.has_shared(tag) => bytes,
            _ => 0,
        };
        let charge = footprint.private_bytes + shared_charge;
        self.ledger.can_fit(charge)
            && self
                .tiers
                .as_ref()
                .is_none_or(|tiers| tiers.edram_fits(charge))
    }

    /// Admits request `index`: opens its lease — checked when it fits, forced
    /// when it does not (the caller admits an oversized request only onto an
    /// empty machine) — places it in eDRAM and attaches its shared prefix.
    pub(crate) fn admit(&mut self, index: usize, footprint: &Footprint, tick: u64) -> LeaseId {
        let bytes = footprint.private_bytes;
        let lease = self
            .ledger
            .reserve(bytes)
            .unwrap_or_else(|_| self.ledger.force_reserve(bytes));
        if let Some(tiers) = &mut self.tiers {
            tiers.place_session(index, bytes, tick);
        }
        if let Some((tag, bytes)) = footprint.shared {
            let charged = self.ledger.attach_shared(tag, bytes);
            if charged {
                self.shared_charged_bytes += bytes;
            }
            if let Some(tiers) = &mut self.tiers {
                if charged {
                    // A new residency period: the segment materialises in
                    // eDRAM alongside its first session.
                    tiers.place_segment(tag, bytes, tick);
                } else {
                    tiers.touch_segment(tag, tick);
                }
            }
        }
        lease
    }

    /// Promote-before-tick for session `index`.
    pub(crate) fn promote(&mut self, index: usize, tick: u64) {
        if let Some(tiers) = &mut self.tiers {
            tiers.promote_session(index, tick);
        }
    }

    /// Lands one tick's decode growth, `(index, lease, bytes)` per stepped
    /// session in request-index order: a touch on each session's tier, then
    /// one ledger commit (equivalent to per-session grows — growth is
    /// monotone within a tick).
    pub(crate) fn grow(&mut self, growths: &[(usize, LeaseId, u64)], tick: u64) {
        if let Some(tiers) = &mut self.tiers {
            for &(index, _, bytes) in growths {
                tiers.note_growth(index, bytes, tick);
            }
        }
        let leases: Vec<(LeaseId, u64)> = growths
            .iter()
            .map(|&(_, lease, bytes)| (lease, bytes))
            .collect();
        self.ledger.commit_growth(&leases);
    }

    /// Releases everything request `index` held — its lease, its tier
    /// placement and its shared-prefix attachment, taking the segment off
    /// its tier on the last detach — and returns the lease's final bytes.
    pub(crate) fn release(
        &mut self,
        index: usize,
        lease: LeaseId,
        shared: Option<(u64, u64)>,
    ) -> u64 {
        let bytes = self.ledger.release(lease);
        if let Some(tiers) = &mut self.tiers {
            tiers.remove_session(index);
        }
        if let Some((tag, _)) = shared {
            let last_detach = self.ledger.detach_shared(tag);
            if let Some(tiers) = self.tiers.as_mut().filter(|_| last_detach) {
                tiers.remove_segment(tag);
            }
        }
        bytes
    }

    /// The end-of-tick rebalance, settling every bounded tier.
    pub(crate) fn settle(&mut self, tick: u64) {
        if let Some(tiers) = &mut self.tiers {
            tiers.rebalance(tick);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memory() -> MemorySubsystem {
        MemorySubsystem::kelle_default()
    }

    fn manager(edram: u64) -> TierManager {
        TierManager::new(TierConfig::with_edram_budget(edram), memory(), None)
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
        let mut tiers = manager(100);
        tiers.place_session(0, 150, 0);
        assert_eq!(tiers.session_tier(0), Some(MemoryTier::Edram));

        tiers.rebalance(1);
        assert_eq!(tiers.session_tier(0), Some(MemoryTier::Dram));
        assert_eq!(tiers.accounts.resident_bytes(MemoryTier::Edram), 0);

        tiers.promote_session(0, 2);
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
        let mut tiers = manager(100);
        // Session 0 is old and large (lowest credit); session 1 fresh and
        // small.
        tiers.place_session(0, 80, 0);
        tiers.place_session(1, 40, 10);
        tiers.rebalance(10);
        assert_eq!(tiers.session_tier(0), Some(MemoryTier::Dram));
        assert_eq!(tiers.session_tier(1), Some(MemoryTier::Edram));
        assert!(tiers.accounts.resident_bytes(MemoryTier::Edram) <= 100);
    }

    #[test]
    fn demotion_cascades_through_dram_to_nvme() {
        let mut tiers = TierManager::new(
            TierConfig::with_edram_budget(100)
                .with_budgets(TierBudgets::with_edram(100).with_dram(50)),
            memory(),
            None,
        );
        // Too big for eDRAM *and* DRAM: one rebalance pushes it down one
        // level per bounded tier — eDRAM demotes to DRAM, DRAM's own pass
        // then demotes to NVMe.
        tiers.place_session(0, 200, 0);
        tiers.rebalance(1);
        assert_eq!(tiers.session_tier(0), Some(MemoryTier::Nvme));
        assert_eq!(tiers.metrics().demotions, 2);
        assert_eq!(tiers.metrics().nvme.in_bytes, 200);
    }

    #[test]
    fn watermark_rises_under_pressure_and_decays_when_idle() {
        let mut tiers = manager(100);
        tiers.place_session(0, 150, 0);
        tiers.rebalance(1); // pressure: watermark rises above 1/150
        let metrics_after_pressure = tiers.metrics();
        assert_eq!(metrics_after_pressure.demotions, 1);
        // A fresh small session now sits above the watermark and survives,
        // and the empty-tier rebalance decays the watermark back down.
        tiers.place_session(1, 10, 2);
        tiers.rebalance(2);
        assert_eq!(tiers.session_tier(1), Some(MemoryTier::Edram));
        for _ in 3..10 {
            tiers.rebalance(3);
        }
        assert_eq!(
            tiers.metrics().demotions,
            metrics_after_pressure.demotions,
            "no further demotions once the watermark decays"
        );
    }

    #[test]
    fn growth_lands_on_the_current_tier_and_touch_promotes_segments() {
        let mut tiers = manager(1000);
        tiers.place_segment(7, 100, 0);
        tiers.note_growth(3, 10, 0); // unknown session: ignored
        tiers.place_session(3, 50, 0);
        tiers.note_growth(3, 10, 1);
        assert_eq!(tiers.accounts.resident_bytes(MemoryTier::Edram), 160);

        // Force the segment down, then a dedup attach touches it back up.
        let mut small = manager(10);
        small.place_segment(7, 100, 0);
        small.rebalance(1);
        assert_eq!(small.segment_tier(7), Some(MemoryTier::Dram));
        small.touch_segment(7, 2);
        assert_eq!(small.segment_tier(7), Some(MemoryTier::Edram));
        assert_eq!(small.metrics().promotions, 1);
        small.remove_segment(7);
        assert_eq!(small.accounts.total_resident_bytes(), 0);
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
                let mut tiers = manager(edram);
            let total: u64 = sizes.iter().sum();
            for (i, &bytes) in sizes.iter().enumerate() {
                tiers.place_session(i, bytes, 0);
            }
            for tick in 1..=ticks {
                tiers.rebalance(tick);
                prop_assert!(tiers.accounts.resident_bytes(MemoryTier::Edram) <= edram);
                prop_assert!(
                    tiers.accounts.resident_bytes(MemoryTier::Dram)
                        <= tiers.config.budgets.budget(MemoryTier::Dram)
                );
                prop_assert_eq!(tiers.accounts.total_resident_bytes(), total);
            }
            // Demote→promote round trips restore the placement exactly.
            for i in 0..sizes.len() {
                tiers.promote_session(i, ticks + 1);
            }
            prop_assert_eq!(tiers.accounts.resident_bytes(MemoryTier::Edram), total);
            prop_assert_eq!(tiers.accounts.resident_bytes(MemoryTier::Dram), 0);
            prop_assert_eq!(tiers.accounts.resident_bytes(MemoryTier::Nvme), 0);
            // Migration traffic is conserved: bytes out of one tier landed
            // in another, and the total is what the metrics report.
            let metrics = tiers.metrics();
            let out_total = metrics.edram.out_bytes + metrics.dram.out_bytes + metrics.nvme.out_bytes;
            let in_total = metrics.edram.in_bytes + metrics.dram.in_bytes + metrics.nvme.in_bytes;
            prop_assert_eq!(out_total, in_total);
            prop_assert_eq!(metrics.migrated_bytes, out_total);
        }
    }

    /// A fault plan whose first `failures` migration draws fail and whose
    /// next one succeeds — found by seed search, so the test pins the retry
    /// arithmetic and not one seed's luck.
    fn flaky(failures: usize) -> ChaosPlan {
        use crate::chaos::ChaosConfig;
        (0..)
            .map(|seed| {
                ChaosPlan::new(
                    ChaosConfig::default()
                        .with_seed(seed)
                        .with_migration_faults(500),
                )
            })
            .find(|plan| {
                let mut probe = plan.clone();
                (0..failures).all(|_| probe.migration_fails()) && !probe.migration_fails()
            })
            .expect("some seed fails exactly the first draws")
    }

    /// A fault plan under which every transfer fails.
    fn dead() -> ChaosPlan {
        ChaosPlan::new(crate::chaos::ChaosConfig::default().with_migration_faults(1000))
    }

    #[test]
    fn transient_migration_faults_retry_and_charge_without_moving_bytes() {
        let mut tiers = manager(100);
        // Two transient failures: the demotion still lands on the third
        // attempt, with the two wasted transfers charged on top.
        tiers.faults = Some(flaky(2));
        tiers.place_session(0, 150, 0);
        tiers.rebalance(1);
        assert_eq!(tiers.session_tier(0), Some(MemoryTier::Dram));
        let metrics = tiers.metrics();
        assert_eq!(metrics.migration_retries, 2);
        assert_eq!(metrics.failed_migrations, 0);
        assert_eq!(metrics.migrated_bytes, 150, "only the success moved bytes");
        let clean_cost = {
            let mut clean = manager(100);
            clean.place_session(0, 150, 0);
            clean.rebalance(1);
            clean.metrics().migration_time_s
        };
        assert!(
            metrics.migration_time_s > clean_cost * 2.9,
            "three transfers were paid for one migration"
        );
    }

    #[test]
    fn exhausted_migration_attempts_degrade_to_the_source_tier() {
        let mut tiers = manager(100);
        tiers.faults = Some(dead());
        tiers.place_session(0, 150, 0);
        tiers.rebalance(1);
        // The demotion was abandoned: the session stays (over budget) in
        // eDRAM and the accounts still conserve bytes.
        assert_eq!(tiers.session_tier(0), Some(MemoryTier::Edram));
        assert_eq!(tiers.accounts.total_resident_bytes(), 150);
        let metrics = tiers.metrics();
        assert_eq!(metrics.failed_migrations, 1);
        assert_eq!(metrics.migration_retries, MAX_MIGRATION_ATTEMPTS as u64);
        assert_eq!(metrics.migrated_bytes, 0);
        assert_eq!(metrics.demotions, 0);

        // A later fault-free rebalance recovers and demotes normally.
        tiers.faults = None;
        tiers.rebalance(2);
        assert_eq!(tiers.session_tier(0), Some(MemoryTier::Dram));
        assert_eq!(tiers.accounts.total_resident_bytes(), 150);
    }

    #[test]
    fn failed_promotion_leaves_the_session_serving_from_dram() {
        let mut tiers = manager(100);
        tiers.place_session(0, 150, 0);
        tiers.rebalance(1);
        assert_eq!(tiers.session_tier(0), Some(MemoryTier::Dram));
        tiers.faults = Some(dead());
        tiers.promote_session(0, 2);
        assert_eq!(
            tiers.session_tier(0),
            Some(MemoryTier::Dram),
            "failed promotion degrades gracefully"
        );
        assert_eq!(tiers.metrics().failed_migrations, 1);
        // The next (healthy) promote-before-tick recovers.
        tiers.faults = None;
        tiers.promote_session(0, 3);
        assert_eq!(tiers.session_tier(0), Some(MemoryTier::Edram));
    }

    #[test]
    fn settled_peak_respects_budget_when_demotion_has_room() {
        let mut tiers = manager(100);
        for i in 0..5 {
            tiers.place_session(i, 60, i as u64);
        }
        for tick in 1..6 {
            tiers.rebalance(tick);
        }
        let metrics = tiers.metrics();
        assert!(metrics.edram.settled_peak_bytes <= 100);
        assert!(metrics.edram.peak_bytes >= metrics.edram.settled_peak_bytes);
    }
}
