//! Tiered-memory pressure sweep: a fleet whose total KV demand exceeds the
//! eDRAM budget, served through the `kelle::tier` hierarchy.
//!
//! The sweep serves the same deterministic [`TieringScenario`] fleet twice
//! on identically configured engines — once unbounded (the reference), once
//! with the eDRAM → DRAM → NVMe hierarchy sized to a fraction of the
//! fleet's demand — and reports:
//!
//! * the fleet's total full-scale KV demand and each tier's budget;
//! * per-tier residency peaks (raw and settled) and migration traffic;
//! * demotion/promotion counts, migrated bytes and the modelled migration
//!   latency/energy charged through the hardware model.
//!
//! Token streams and fault statistics are asserted bit-identical between
//! the two runs while being measured, and the settled eDRAM residency is
//! asserted within its budget — demonstrating that a fleet bigger than the
//! on-chip memory completes with overflow held in the slower tiers.  This
//! is the sweep behind the `bench_tiering` binary (which emits
//! `BENCH_tiering.json`, gated in CI) and the `tables --table tiering`
//! report.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use kelle::edram::{MemoryTier, TierBudgets};
use kelle::tier::{TierConfig, TieringMetrics};
use kelle::workloads::TieringScenario;
use kelle::{KelleEngine, PrefixSharingConfig, SchedulerConfig, ServeOptions, ServeRequest};

/// Configuration of one tiered-memory pressure sweep.
#[derive(Debug, Clone)]
pub struct TieringPerfConfig {
    /// The pressure fleet and the tier budgets (as fractions of its demand).
    pub scenario: TieringScenario,
    /// Engine seed.
    pub seed: u64,
}

impl TieringPerfConfig {
    /// The quick configuration used by CI: the acceptance-shape pressure
    /// fleet (eDRAM at 40 % of the fleet's KV demand, DRAM at 50 %).
    pub fn quick() -> Self {
        TieringPerfConfig {
            scenario: TieringScenario::edge_pressure(),
            seed: 23,
        }
    }

    /// The full configuration for local benchmarking: a longer decode, so
    /// growth keeps the hierarchy under pressure for more ticks.
    pub fn full() -> Self {
        let mut scenario = TieringScenario::edge_pressure();
        scenario.fleet = scenario.fleet.with_decode_len(128);
        TieringPerfConfig { scenario, seed: 23 }
    }
}

/// One tier's measured residency and traffic.
#[derive(Debug, Clone)]
pub struct TierRow {
    /// The tier.
    pub tier: MemoryTier,
    /// The tier's byte budget (`u64::MAX` = unbounded NVMe).
    pub budget_bytes: u64,
    /// Peak bytes ever resident (including transient within-tick residency).
    pub peak_bytes: u64,
    /// Peak bytes resident after a rebalance — what the budget bounds.
    pub settled_peak_bytes: u64,
    /// Bytes migrated into the tier.
    pub in_bytes: u64,
    /// Bytes migrated out of the tier.
    pub out_bytes: u64,
}

/// A complete tiered-memory pressure report.
#[derive(Debug, Clone)]
pub struct TieringPerfReport {
    /// Scenario label.
    pub workload: String,
    /// The configuration measured.
    pub config: TieringPerfConfig,
    /// The fleet's total resident KV demand in bytes — the shared system
    /// prompt counted once (it is deduplicated across the fleet) plus every
    /// session's private prompt + decode footprint.  This is the pressure
    /// the hierarchy actually absorbs.
    pub total_kv_demand_bytes: u64,
    /// One row per tier, fastest first.
    pub tiers: Vec<TierRow>,
    /// The raw batch-level tiering metrics of the tiered run.
    pub metrics: TieringMetrics,
    /// Wall time of the tiered run in seconds.
    pub tiered_seconds: f64,
    /// Wall time of the unbounded reference run in seconds.
    pub unbounded_seconds: f64,
    /// Whether the tiered streams matched the unbounded reference (always
    /// asserted; recorded for the JSON artifact).
    pub streams_identical: bool,
}

impl TieringPerfReport {
    /// Serializes the report as JSON (hand-rolled: the workspace has no
    /// JSON dependency).
    pub fn to_json(&self) -> String {
        let fleet = &self.config.scenario.fleet;
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"workload\": \"{}\",\n", self.workload));
        out.push_str(&format!(
            "  \"sessions\": {}, \"system_tokens\": {}, \"user_tokens\": {}, \"decode_len\": {},\n",
            fleet.sessions, fleet.system_tokens, fleet.user_tokens, fleet.decode_len
        ));
        out.push_str(&format!(
            "  \"total_kv_demand_bytes\": {},\n",
            self.total_kv_demand_bytes
        ));
        out.push_str("  \"tiers\": [\n");
        for (i, row) in self.tiers.iter().enumerate() {
            let budget = if row.budget_bytes == u64::MAX {
                "null".to_string()
            } else {
                row.budget_bytes.to_string()
            };
            out.push_str(&format!(
                "    {{\"tier\": \"{}\", \"budget_bytes\": {}, \"peak_bytes\": {}, \
                 \"settled_peak_bytes\": {}, \"in_bytes\": {}, \"out_bytes\": {}}}{}\n",
                row.tier.name(),
                budget,
                row.peak_bytes,
                row.settled_peak_bytes,
                row.in_bytes,
                row.out_bytes,
                if i + 1 < self.tiers.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"demotions\": {}, \"promotions\": {}, \"migrated_bytes\": {},\n",
            self.metrics.demotions, self.metrics.promotions, self.metrics.migrated_bytes
        ));
        out.push_str(&format!(
            "  \"migration_time_s\": {:.9}, \"migration_energy_j\": {:.9},\n",
            self.metrics.migration_time_s, self.metrics.migration_energy_j
        ));
        out.push_str(&format!(
            "  \"tiered_seconds\": {:.6}, \"unbounded_seconds\": {:.6},\n",
            self.tiered_seconds, self.unbounded_seconds
        ));
        out.push_str(&format!(
            "  \"streams_identical\": {}\n",
            self.streams_identical
        ));
        out.push_str("}\n");
        out
    }

    /// Writes the JSON artifact (`BENCH_tiering.json`).
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write errors.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_json().as_bytes())
    }
}

fn engine(config: &TieringPerfConfig) -> KelleEngine {
    KelleEngine::builder()
        .prefix_sharing(PrefixSharingConfig::enabled())
        .seed(config.seed)
        .build()
}

fn requests_for(scenario: &TieringScenario) -> Vec<ServeRequest> {
    scenario
        .fleet
        .prompts()
        .into_iter()
        .map(|prompt| {
            ServeRequest::builder(prompt)
                .decode_len(scenario.fleet.decode_len)
                .label("tiered-serving")
                .build()
        })
        .collect()
}

/// Runs the pressure sweep: the unbounded reference, then the tiered run.
///
/// # Panics
///
/// Panics if the tiered run changes any token stream or fault statistic, or
/// if the settled eDRAM residency exceeds its budget (it cannot, by the
/// tiering guarantees — this is the benchmark's self-check).
pub fn run(config: TieringPerfConfig) -> TieringPerfReport {
    let probe = engine(&config);
    let fleet = &config.scenario.fleet;
    let shared = probe.kv_footprint_bytes(fleet.system_tokens);
    let private = probe.kv_footprint_bytes(fleet.user_tokens + fleet.decode_len);
    let demand = shared + private * fleet.sessions as u64;
    let edram = config.scenario.edram_budget_bytes(demand);
    let dram = config.scenario.dram_budget_bytes(demand);
    assert!(
        demand > edram,
        "the pressure fleet must exceed the eDRAM budget"
    );
    let budgets = TierBudgets::with_edram(edram).with_dram(dram);
    let tiering = TierConfig::with_edram_budget(edram).with_budgets(budgets);

    let reference_engine = engine(&config);
    assert!(reference_engine.publish_prefix(&fleet.system_prompt()));
    let start = Instant::now();
    let reference = reference_engine
        .serve(requests_for(&config.scenario), ServeOptions::new())
        .expect("no chaos configured, no worker can be lost");
    let unbounded_seconds = start.elapsed().as_secs_f64();

    let tiered_engine = engine(&config);
    assert!(tiered_engine.publish_prefix(&fleet.system_prompt()));
    let start = Instant::now();
    let tiered = tiered_engine
        .serve(
            requests_for(&config.scenario),
            ServeOptions::new().with_scheduler(SchedulerConfig::default().with_tiering(tiering)),
        )
        .expect("no chaos configured, no worker can be lost");
    let tiered_seconds = start.elapsed().as_secs_f64();

    let streams_identical = reference
        .outcomes
        .iter()
        .zip(tiered.outcomes.iter())
        .all(|(a, b)| {
            a.generated == b.generated && a.faults == b.faults && a.hardware == b.hardware
        });
    assert!(streams_identical, "tiering changed a token stream");
    let metrics = tiered.tiering;
    assert!(
        metrics.edram.settled_peak_bytes <= edram,
        "settled eDRAM residency exceeded its budget"
    );
    assert!(
        metrics.dram.in_bytes + metrics.nvme.in_bytes > 0,
        "a fleet bigger than eDRAM must overflow into the slower tiers"
    );

    let tiers = MemoryTier::all()
        .into_iter()
        .map(|tier| {
            let usage = metrics.tier(tier);
            TierRow {
                tier,
                budget_bytes: budgets.budget(tier),
                peak_bytes: usage.peak_bytes,
                settled_peak_bytes: usage.settled_peak_bytes,
                in_bytes: usage.in_bytes,
                out_bytes: usage.out_bytes,
            }
        })
        .collect();
    TieringPerfReport {
        workload: "tiered_shared_prompt".to_string(),
        config,
        total_kv_demand_bytes: demand,
        tiers,
        metrics,
        tiered_seconds,
        unbounded_seconds,
        streams_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kelle::workloads::SharedPromptScenario;

    fn tiny() -> TieringPerfConfig {
        TieringPerfConfig {
            scenario: TieringScenario::new(
                SharedPromptScenario::new(3, 24, 4).with_decode_len(3),
                40,
                50,
            ),
            seed: 5,
        }
    }

    #[test]
    fn pressure_sweep_bounds_edram_and_keeps_streams() {
        let report = run(tiny());
        assert!(report.streams_identical);
        assert!(report.total_kv_demand_bytes > report.tiers[0].budget_bytes);
        assert!(report.tiers[0].settled_peak_bytes <= report.tiers[0].budget_bytes);
        assert!(report.metrics.demotions > 0);
        assert!(report.metrics.migrated_bytes > 0);
        assert!(report.metrics.migration_time_s > 0.0);
        assert!(report.metrics.migration_energy_j > 0.0);
        // Overflow landed in DRAM (and possibly NVMe).
        assert!(report.tiers[1].in_bytes + report.tiers[2].in_bytes > 0);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let report = run(tiny());
        let json = report.to_json();
        assert!(json.contains("\"workload\": \"tiered_shared_prompt\""));
        assert!(json.contains("\"tier\": \"edram\""));
        assert!(json.contains("\"tier\": \"nvme\""));
        assert!(json.contains("\"demotions\": "));
        assert!(json.contains("\"streams_identical\": true"));
    }
}
