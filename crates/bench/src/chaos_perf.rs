//! Chaos-recovery sweep: a fleet served under deterministic fault injection
//! versus the same fleet served fault-free.
//!
//! The sweep serves the same deterministic
//! [`ChaosScenario`] fleet twice on identically configured engines — once
//! clean (the reference), once with the seeded chaos plan injecting worker
//! panics mid-tick, transient tier-migration failures and admission blips —
//! and reports:
//!
//! * the injected-fault census (panics, migration retries, abandoned
//!   migrations, ledger blips) and the recovery work it forced
//!   (checkpoints, restores, replayed steps);
//! * decode throughput and p50/p99 per-token latency for both runs — the
//!   price of recovery in tail latency;
//! * whether every stream survived bit-identical (always asserted while
//!   being measured).
//!
//! This is the sweep behind the `bench_chaos` binary (which emits
//! `BENCH_chaos.json`, gated in CI) and the `tables --table chaos` report.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use kelle::edram::TierBudgets;
use kelle::tier::TierConfig;
use kelle::workloads::ChaosScenario;
use kelle::{
    BatchOutcome, ChaosConfig, ChaosMetrics, KelleEngine, PrefixSharingConfig, SchedulerConfig,
    ServeOptions, ServeRequest,
};

/// Configuration of one chaos-recovery sweep.
#[derive(Debug, Clone)]
pub struct ChaosPerfConfig {
    /// The fleet and its fault rates.
    pub scenario: ChaosScenario,
    /// Engine seed.
    pub seed: u64,
    /// Worker threads serving the fleet.
    pub workers: usize,
    /// Replay attempts per lost decode step before the request is shed.
    pub max_retries: u32,
    /// eDRAM tier budget as a percentage of the fleet's KV demand (tiering
    /// keeps migrations flowing so migration faults have something to hit).
    pub edram_percent_of_demand: u32,
}

impl ChaosPerfConfig {
    /// The quick configuration used by CI: the acceptance-shape chaos fleet
    /// (5 % worker loss, 10 % migration faults) on 4 workers.
    pub fn quick() -> Self {
        ChaosPerfConfig {
            scenario: ChaosScenario::edge_chaos().with_ledger_blips(50),
            seed: 23,
            workers: 4,
            max_retries: 6,
            edram_percent_of_demand: 40,
        }
    }

    /// The full configuration for local benchmarking: a longer decode, so
    /// the fault budget and the recovery tail are measured over more ticks.
    pub fn full() -> Self {
        let mut config = ChaosPerfConfig::quick();
        config.scenario.fleet = config.scenario.fleet.with_decode_len(128);
        config
    }
}

/// Throughput and per-token latency of one run.
#[derive(Debug, Clone)]
pub struct RunRow {
    /// Run label (`"clean"` or `"chaos"`).
    pub label: &'static str,
    /// Wall time of the run in seconds.
    pub seconds: f64,
    /// Decode throughput in tokens per second.
    pub tokens_per_s: f64,
    /// Median inter-token latency in microseconds.
    pub p50_token_us: f64,
    /// 99th-percentile inter-token latency in microseconds — recovery
    /// replays land here.
    pub p99_token_us: f64,
}

/// A complete chaos-recovery report.
#[derive(Debug, Clone)]
pub struct ChaosPerfReport {
    /// Scenario label.
    pub workload: String,
    /// The configuration measured.
    pub config: ChaosPerfConfig,
    /// The clean reference run.
    pub clean: RunRow,
    /// The fault-injected run.
    pub chaos: RunRow,
    /// Fault-injection and recovery counters of the chaos run.
    pub metrics: ChaosMetrics,
    /// Transient migration-transfer failures retried (tiering metrics of
    /// the chaos run).
    pub migration_retries: u64,
    /// Migrations abandoned after exhausting their transfer attempts.
    pub failed_migrations: u64,
    /// Whether every stream survived bit-identical to the reference
    /// (always asserted; recorded for the JSON artifact).
    pub streams_identical: bool,
}

impl ChaosPerfReport {
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
            "  \"workers\": {}, \"max_retries\": {},\n",
            self.config.workers, self.config.max_retries
        ));
        out.push_str(&format!(
            "  \"worker_loss_per_mille\": {}, \"migration_fault_per_mille\": {}, \
             \"ledger_blip_per_mille\": {},\n",
            self.config.scenario.worker_loss_per_mille,
            self.config.scenario.migration_fault_per_mille,
            self.config.scenario.ledger_blip_per_mille
        ));
        out.push_str("  \"runs\": [\n");
        for (i, row) in [&self.clean, &self.chaos].into_iter().enumerate() {
            out.push_str(&format!(
                "    {{\"label\": \"{}\", \"seconds\": {:.6}, \"tokens_per_s\": {:.1}, \
                 \"p50_token_us\": {:.3}, \"p99_token_us\": {:.3}}}{}\n",
                row.label,
                row.seconds,
                row.tokens_per_s,
                row.p50_token_us,
                row.p99_token_us,
                if i == 0 { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"injected_panics\": {}, \"replayed_steps\": {}, \"restored_sessions\": {}, \
             \"checkpoints_taken\": {},\n",
            self.metrics.injected_panics,
            self.metrics.replayed_steps,
            self.metrics.restored_sessions,
            self.metrics.checkpoints_taken
        ));
        out.push_str(&format!(
            "  \"ledger_blips\": {}, \"lost_requests\": {}, \"migration_retries\": {}, \
             \"failed_migrations\": {},\n",
            self.metrics.ledger_blips,
            self.metrics.lost_requests,
            self.migration_retries,
            self.failed_migrations
        ));
        out.push_str(&format!(
            "  \"streams_identical\": {}\n",
            self.streams_identical
        ));
        out.push_str("}\n");
        out
    }

    /// Writes the JSON artifact (`BENCH_chaos.json`).
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write errors.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_json().as_bytes())
    }
}

/// Installs a panic hook that silences the plan's *injected* worker panics
/// (they are caught by the pool and replayed from checkpoint) while keeping
/// the default hook for everything else.  Call once from a benchmark binary
/// before [`run`] so the fault storm does not drown the report in
/// backtraces.
pub fn silence_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied());
        if message.is_some_and(|m| m.starts_with("chaos: injected worker panic")) {
            return;
        }
        default_hook(info);
    }));
}

fn engine(config: &ChaosPerfConfig) -> KelleEngine {
    KelleEngine::builder()
        .prefix_sharing(PrefixSharingConfig::enabled())
        .seed(config.seed)
        .workers(config.workers)
        .build()
}

fn requests_for(scenario: &ChaosScenario) -> Vec<ServeRequest> {
    scenario
        .fleet
        .prompts()
        .into_iter()
        .map(|prompt| {
            ServeRequest::builder(prompt)
                .decode_len(scenario.fleet.decode_len)
                .label("chaos-serving")
                .build()
        })
        .collect()
}

/// Serves the fleet once, timing every token, and returns the outcome with
/// its latency row.
fn timed_run(
    label: &'static str,
    engine: &KelleEngine,
    requests: Vec<ServeRequest>,
    config: SchedulerConfig,
    decode_tokens: usize,
) -> (BatchOutcome, RunRow) {
    let mut deltas_us: Vec<f64> = Vec::with_capacity(decode_tokens);
    let start = Instant::now();
    let mut last = start;
    let mut sink = |_: usize, _: usize| {
        let now = Instant::now();
        deltas_us.push(now.duration_since(last).as_secs_f64() * 1e6);
        last = now;
    };
    let outcome = engine
        .serve(
            requests,
            ServeOptions::new()
                .parallel()
                .with_scheduler(config)
                .streaming(&mut sink),
        )
        .expect("the retry budget absorbs every injected fault");
    let seconds = start.elapsed().as_secs_f64();
    deltas_us.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let percentile = |q: f64| -> f64 {
        if deltas_us.is_empty() {
            return 0.0;
        }
        let rank = ((deltas_us.len() as f64 - 1.0) * q).round() as usize;
        deltas_us[rank]
    };
    let row = RunRow {
        label,
        seconds,
        tokens_per_s: decode_tokens as f64 / seconds.max(1e-12),
        p50_token_us: percentile(0.50),
        p99_token_us: percentile(0.99),
    };
    (outcome, row)
}

/// Runs the chaos-recovery sweep: the clean reference, then the injected
/// run.
///
/// # Panics
///
/// Panics if any injected fault changes a token stream, fault statistic or
/// hardware report, if a request is lost outright (the retry budget is sized
/// so recovery always succeeds), or if the chaos run injected nothing.
pub fn run(config: ChaosPerfConfig) -> ChaosPerfReport {
    let fleet = &config.scenario.fleet;
    let probe = engine(&config);
    let shared = probe.kv_footprint_bytes(fleet.system_tokens);
    let private = probe.kv_footprint_bytes(fleet.user_tokens + fleet.decode_len);
    let demand = shared + private * fleet.sessions as u64;
    let edram = ((demand as u128 * config.edram_percent_of_demand as u128) / 100).max(1) as u64;
    let tiering = TierConfig::with_edram_budget(edram)
        .with_budgets(TierBudgets::with_edram(edram).with_dram(demand));
    let base = SchedulerConfig::default().with_tiering(tiering);
    let decode_tokens = fleet.sessions * fleet.decode_len;

    let clean_engine = engine(&config);
    assert!(clean_engine.publish_prefix(&fleet.system_prompt()));
    let (reference, clean) = timed_run(
        "clean",
        &clean_engine,
        requests_for(&config.scenario),
        base,
        decode_tokens,
    );

    let plan = ChaosConfig::default()
        .with_seed(config.scenario.chaos_seed)
        .with_worker_panics(config.scenario.worker_loss_per_mille)
        .with_migration_faults(config.scenario.migration_fault_per_mille)
        .with_ledger_blips(config.scenario.ledger_blip_per_mille)
        .with_max_retries(config.max_retries);
    let chaos_engine = engine(&config);
    assert!(chaos_engine.publish_prefix(&fleet.system_prompt()));
    let (injected, chaos) = timed_run(
        "chaos",
        &chaos_engine,
        requests_for(&config.scenario),
        base.with_chaos(plan),
        decode_tokens,
    );

    let streams_identical =
        reference
            .outcomes
            .iter()
            .zip(injected.outcomes.iter())
            .all(|(a, b)| {
                a.generated == b.generated && a.faults == b.faults && a.hardware == b.hardware
            });
    assert!(streams_identical, "chaos recovery changed a token stream");
    let metrics = injected.chaos;
    assert!(
        metrics.injected_panics > 0 || metrics.ledger_blips > 0,
        "the chaos run must actually inject faults"
    );
    assert_eq!(metrics.lost_requests, 0, "the retry budget must hold");

    ChaosPerfReport {
        workload: "chaos_shared_prompt".to_string(),
        config,
        clean,
        chaos,
        metrics,
        migration_retries: injected.tiering.migration_retries,
        failed_migrations: injected.tiering.failed_migrations,
        streams_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kelle::workloads::SharedPromptScenario;

    fn tiny() -> ChaosPerfConfig {
        ChaosPerfConfig {
            scenario: ChaosScenario::new(
                SharedPromptScenario::new(3, 24, 4).with_decode_len(6),
                120,
                200,
            )
            .with_ledger_blips(100),
            seed: 5,
            workers: 2,
            max_retries: 8,
            edram_percent_of_demand: 40,
        }
    }

    #[test]
    fn chaos_sweep_recovers_every_stream() {
        let report = run(tiny());
        assert!(report.streams_identical);
        assert!(report.metrics.injected_panics > 0);
        assert!(report.metrics.checkpoints_taken > 0);
        assert_eq!(report.metrics.lost_requests, 0);
        assert!(report.clean.tokens_per_s > 0.0);
        assert!(report.chaos.tokens_per_s > 0.0);
        assert!(report.chaos.p99_token_us >= report.chaos.p50_token_us);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let report = run(tiny());
        let json = report.to_json();
        assert!(json.contains("\"workload\": \"chaos_shared_prompt\""));
        assert!(json.contains("\"label\": \"clean\""));
        assert!(json.contains("\"label\": \"chaos\""));
        assert!(json.contains("\"injected_panics\": "));
        assert!(json.contains("\"streams_identical\": true"));
    }
}
