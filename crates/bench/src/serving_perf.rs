//! Threaded-serving sweep: aggregate decode throughput vs. worker count on
//! the shared-prompt fleet.
//!
//! Per worker count the sweep serves the *same* deterministic
//! [`ParallelScenario`] fleet on identically configured engines — first
//! sequentially (the classic single-threaded scheduler, the reference), then
//! through the `kelle::parallel` worker pool at each configured count — and
//! reports, per side:
//!
//! * aggregate decode tokens/s (fleet decode tokens / decode wall time,
//!   prefill timed separately);
//! * speedup versus the 1-worker pool (the protocol running on one worker,
//!   so the ratio isolates parallelism from protocol overhead);
//! * single-session per-token decode latency (p50/p99): one session served
//!   alone through the same execution mode, each scheduler tick timed — the
//!   interactive-latency complement to the fleet-throughput number.
//!
//! Token streams are asserted identical between every worker count and the
//! sequential reference while being timed — the speedup can never come from
//! computing something different.  This is the sweep behind the
//! `bench_serving` binary (which emits `BENCH_serving.json`, gated in CI)
//! and the `tables --table serving` report.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use kelle::workloads::ParallelScenario;
use kelle::{
    BatchOutcome, BatchScheduler, InlineExecutor, KelleEngine, PrefixSharingConfig, ServeRequest,
    StepExecutor, WorkerPool,
};

/// Configuration of one threaded-serving sweep.
#[derive(Debug, Clone)]
pub struct ServingPerfConfig {
    /// The fleet and the worker counts to sweep.
    pub scenario: ParallelScenario,
    /// Engine seed.
    pub seed: u64,
}

impl ServingPerfConfig {
    /// The quick configuration used by CI: the acceptance shape — the
    /// 8-session × 256-token shared-prompt fleet at 1, 2 and 4 workers.
    pub fn quick() -> Self {
        ServingPerfConfig {
            scenario: ParallelScenario::edge_fleet(),
            seed: 23,
        }
    }

    /// The full configuration for local benchmarking: a longer decode and a
    /// wider worker sweep.
    pub fn full() -> Self {
        let mut scenario = ParallelScenario::edge_fleet().with_worker_counts(vec![1, 2, 4, 8]);
        scenario.fleet = scenario.fleet.with_decode_len(128);
        ServingPerfConfig { scenario, seed: 23 }
    }
}

/// One measured serving run (sequential reference or one worker count).
#[derive(Debug, Clone)]
pub struct ServingPerfRow {
    /// Worker threads (`None` for the sequential single-threaded reference).
    pub workers: Option<usize>,
    /// Fleet decode tokens generated (identical on every row by design).
    pub decode_tokens: usize,
    /// Wall time of the prefill/admission phase in seconds.
    pub prefill_seconds: f64,
    /// Wall time of the decode phase in seconds.
    pub decode_seconds: f64,
    /// Aggregate decode throughput: `decode_tokens / decode_seconds`.
    pub decode_tokens_per_sec: f64,
    /// Throughput relative to the baseline row — the 1-worker pool when the
    /// sweep includes worker count 1 (so the ratio isolates parallelism from
    /// protocol overhead), otherwise the sequential reference.  `None` on
    /// the sequential reference row itself.
    pub speedup_vs_one_worker: Option<f64>,
    /// Whether this row's token streams matched the sequential reference
    /// (always asserted; recorded for the JSON artifact).
    pub streams_identical: bool,
    /// Median per-token decode latency of a single session served alone
    /// through this row's execution mode, in microseconds.
    pub token_latency_p50_us: f64,
    /// 99th-percentile single-session per-token decode latency in
    /// microseconds.
    pub token_latency_p99_us: f64,
}

/// A complete threaded-serving report.
#[derive(Debug, Clone)]
pub struct ServingPerfReport {
    /// Scenario label.
    pub workload: String,
    /// The configuration measured.
    pub config: ServingPerfConfig,
    /// The sequential reference followed by one row per worker count.
    pub rows: Vec<ServingPerfRow>,
}

impl ServingPerfReport {
    /// The speedup baseline: the 1-worker pool row when the sweep measured
    /// one, otherwise the sequential reference row.
    fn baseline_tps(&self) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.workers == Some(1))
            .or_else(|| self.rows.iter().find(|r| r.workers.is_none()))
            .map(|r| r.decode_tokens_per_sec)
    }

    /// Serializes the report as JSON (hand-rolled: the workspace has no JSON
    /// dependency).
    pub fn to_json(&self) -> String {
        let fleet = &self.config.scenario.fleet;
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"workload\": \"{}\",\n", self.workload));
        out.push_str(&format!(
            "  \"sessions\": {}, \"system_tokens\": {}, \"user_tokens\": {}, \"decode_len\": {},\n",
            fleet.sessions, fleet.system_tokens, fleet.user_tokens, fleet.decode_len
        ));
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let workers = row
                .workers
                .map(|w| w.to_string())
                .unwrap_or_else(|| "\"sequential\"".to_string());
            let speedup = row
                .speedup_vs_one_worker
                .map(|s| format!("{s:.4}"))
                .unwrap_or_else(|| "null".to_string());
            out.push_str(&format!(
                "    {{\"workers\": {}, \"decode_tokens\": {}, \
                 \"prefill_seconds\": {:.6}, \"decode_seconds\": {:.6}, \
                 \"decode_tokens_per_sec\": {:.2}, \"speedup_vs_one_worker\": {}, \
                 \"streams_identical\": {}, \
                 \"token_latency_p50_us\": {:.2}, \"token_latency_p99_us\": {:.2}}}{}\n",
                workers,
                row.decode_tokens,
                row.prefill_seconds,
                row.decode_seconds,
                row.decode_tokens_per_sec,
                speedup,
                row.streams_identical,
                row.token_latency_p50_us,
                row.token_latency_p99_us,
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the JSON artifact (`BENCH_serving.json`).
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write errors.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_json().as_bytes())
    }
}

fn engine(config: &ServingPerfConfig) -> KelleEngine {
    KelleEngine::builder()
        .prefix_sharing(PrefixSharingConfig::enabled())
        .seed(config.seed)
        .build()
}

fn requests_for(scenario: &ParallelScenario) -> Vec<ServeRequest> {
    scenario
        .fleet
        .prompts()
        .into_iter()
        .map(|prompt| {
            ServeRequest::builder(prompt)
                .decode_len(scenario.fleet.decode_len)
                .label("parallel-serving")
                .build()
        })
        .collect()
}

/// Runs `drive` on the execution mode under test: `None` is the classic
/// single-threaded executor, `Some(n)` an `n`-worker pool.  Both speak the
/// same resident-session protocol, so every measurement has one body.
fn with_executor<'e, R>(
    workers: Option<usize>,
    drive: impl FnOnce(&mut dyn StepExecutor<'e>) -> R,
) -> R {
    match workers {
        None => drive(&mut InlineExecutor::default()),
        Some(workers) => std::thread::scope(|scope| drive(&mut WorkerPool::start(scope, workers))),
    }
}

/// Serves the fleet once, timing the prefill (submit) and decode phases
/// separately.
fn serve_fleet(config: &ServingPerfConfig, workers: Option<usize>) -> (BatchOutcome, f64, f64) {
    let engine = engine(config);
    assert!(
        engine.publish_prefix(&config.scenario.fleet.system_prompt()),
        "publication must succeed"
    );
    let requests = requests_for(&config.scenario);
    with_executor(workers, |executor| {
        let mut scheduler = BatchScheduler::new(&engine);
        let start = Instant::now();
        for request in requests {
            scheduler.submit_with(request, executor);
        }
        let prefill_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let outcome = scheduler
            .run_with(executor, |_| {})
            .expect("benchmark fleet runs without chaos");
        (outcome, prefill_s, start.elapsed().as_secs_f64())
    })
}

/// Serves the fleet's first session *alone* through the given execution
/// mode, timing every scheduler tick — one tick is one token for a single
/// session, so the samples are per-token decode latencies in seconds.
fn single_session_token_latencies(config: &ServingPerfConfig, workers: Option<usize>) -> Vec<f64> {
    let engine = engine(config);
    assert!(
        engine.publish_prefix(&config.scenario.fleet.system_prompt()),
        "publication must succeed"
    );
    let request = requests_for(&config.scenario)
        .into_iter()
        .next()
        .expect("the fleet has at least one session");
    with_executor(workers, |executor| {
        let mut scheduler = BatchScheduler::new(&engine);
        scheduler.submit_with(request, executor);
        let mut latencies = Vec::new();
        while !scheduler.is_idle() {
            let start = Instant::now();
            let events = scheduler.step_with(executor);
            let elapsed = start.elapsed().as_secs_f64();
            latencies.extend(std::iter::repeat_n(elapsed, events.len()));
        }
        latencies
    })
}

/// Nearest-rank percentile of the latency samples, in microseconds.
fn percentile_us(latencies: &[f64], q: f64) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    let mut sorted = latencies.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let rank = ((q / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)] * 1e6
}

/// Runs the full sweep: sequential reference first, then every worker count.
///
/// # Panics
///
/// Panics if any worker count generates a different token stream than the
/// sequential reference (it cannot, by the parallel-equivalence guarantee —
/// this is the benchmark's self-check).
pub fn run(config: ServingPerfConfig) -> ServingPerfReport {
    let decode_tokens = config.scenario.total_decode_tokens();
    let (reference, ref_prefill_s, ref_decode_s) = serve_fleet(&config, None);
    let ref_latencies = single_session_token_latencies(&config, None);

    let mut rows = vec![ServingPerfRow {
        workers: None,
        decode_tokens,
        prefill_seconds: ref_prefill_s,
        decode_seconds: ref_decode_s,
        decode_tokens_per_sec: decode_tokens as f64 / ref_decode_s.max(f64::MIN_POSITIVE),
        speedup_vs_one_worker: None,
        streams_identical: true,
        token_latency_p50_us: percentile_us(&ref_latencies, 50.0),
        token_latency_p99_us: percentile_us(&ref_latencies, 99.0),
    }];
    for &workers in &config.scenario.worker_counts {
        let (outcome, prefill_s, decode_s) = serve_fleet(&config, Some(workers));
        let latencies = single_session_token_latencies(&config, Some(workers));
        let streams_identical = reference
            .outcomes
            .iter()
            .zip(outcome.outcomes.iter())
            .all(|(a, b)| a.generated == b.generated && a.faults == b.faults);
        assert!(
            streams_identical,
            "worker count {workers} changed a token stream"
        );
        rows.push(ServingPerfRow {
            workers: Some(workers),
            decode_tokens,
            prefill_seconds: prefill_s,
            decode_seconds: decode_s,
            decode_tokens_per_sec: decode_tokens as f64 / decode_s.max(f64::MIN_POSITIVE),
            speedup_vs_one_worker: None,
            streams_identical,
            token_latency_p50_us: percentile_us(&latencies, 50.0),
            token_latency_p99_us: percentile_us(&latencies, 99.0),
        });
    }

    let mut report = ServingPerfReport {
        workload: "parallel_shared_prompt".to_string(),
        config,
        rows,
    };
    if let Some(base) = report.baseline_tps() {
        for row in &mut report.rows {
            if row.workers.is_some() {
                row.speedup_vs_one_worker = Some(row.decode_tokens_per_sec / base);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use kelle::workloads::SharedPromptScenario;

    #[test]
    fn sweep_asserts_identical_streams_and_reports_speedups() {
        let config = ServingPerfConfig {
            scenario: ParallelScenario::new(
                SharedPromptScenario::new(3, 24, 4).with_decode_len(3),
                vec![1, 2],
            ),
            seed: 5,
        };
        let report = run(config);
        // Sequential reference + one row per worker count.
        assert_eq!(report.rows.len(), 3);
        assert_eq!(report.rows[0].workers, None);
        assert!(report.rows.iter().all(|r| r.streams_identical));
        assert!(report.rows.iter().all(|r| r.decode_tokens == 9));
        // Per-token latency percentiles are measured on every row and
        // ordered (p99 >= p50 > 0).
        assert!(report
            .rows
            .iter()
            .all(|r| r.token_latency_p99_us >= r.token_latency_p50_us
                && r.token_latency_p50_us > 0.0));
        let one = report.rows.iter().find(|r| r.workers == Some(1)).unwrap();
        assert!((one.speedup_vs_one_worker.unwrap() - 1.0).abs() < 1e-9);
        assert!(report.rows[2].speedup_vs_one_worker.unwrap() > 0.0);
    }

    #[test]
    fn sweep_without_a_one_worker_row_baselines_on_the_sequential_row() {
        let config = ServingPerfConfig {
            scenario: ParallelScenario::new(
                SharedPromptScenario::new(2, 16, 4).with_decode_len(2),
                vec![2],
            ),
            seed: 5,
        };
        let report = run(config);
        assert_eq!(report.rows.len(), 2);
        assert!(report.rows[0].workers.is_none());
        assert!(report.rows[0].speedup_vs_one_worker.is_none());
        assert!(
            report.rows[1].speedup_vs_one_worker.unwrap() > 0.0,
            "the sequential row serves as the fallback baseline"
        );
    }

    #[test]
    fn json_is_well_formed_enough() {
        let report = ServingPerfReport {
            workload: "parallel_shared_prompt".into(),
            config: ServingPerfConfig::quick(),
            rows: vec![
                ServingPerfRow {
                    workers: None,
                    decode_tokens: 256,
                    prefill_seconds: 0.5,
                    decode_seconds: 1.0,
                    decode_tokens_per_sec: 256.0,
                    speedup_vs_one_worker: None,
                    streams_identical: true,
                    token_latency_p50_us: 120.0,
                    token_latency_p99_us: 340.5,
                },
                ServingPerfRow {
                    workers: Some(4),
                    decode_tokens: 256,
                    prefill_seconds: 0.5,
                    decode_seconds: 0.25,
                    decode_tokens_per_sec: 1024.0,
                    speedup_vs_one_worker: Some(4.0),
                    streams_identical: true,
                    token_latency_p50_us: 130.0,
                    token_latency_p99_us: 410.0,
                },
            ],
        };
        let json = report.to_json();
        assert!(json.contains("\"workload\": \"parallel_shared_prompt\""));
        assert!(json.contains("\"workers\": \"sequential\""));
        assert!(json.contains("\"speedup_vs_one_worker\": 4.0000"));
        assert!(json.contains("\"speedup_vs_one_worker\": null"));
        assert!(json.contains("\"token_latency_p50_us\": 120.00"));
        assert!(json.contains("\"token_latency_p99_us\": 410.00"));
    }
}
