//! Fleet-scale trace replay and admission-policy shootout.
//!
//! The sweep generates one deterministic [`Trace`] (thousands of Poisson
//! sessions, heterogeneous archetypes, multi-turn conversations, nested
//! prefix hierarchies), publishes the hierarchy, and replays the trace
//! through `KelleEngine::serve` under a KV capacity tight enough to queue —
//! once per admission policy (fcfs / shortest-prompt-first / capacity-fit)
//! at every configured worker count.  Each row reports the wall time and
//! the scheduler's [`SloReport`]: TTFT/TPOT/queue-time percentiles and
//! goodput under the configured [`SloSpec`].
//!
//! Two determinism claims are asserted *while being measured*:
//!
//! * token streams are bit-identical on **every** row — admission policy,
//!   capacity and worker count never change a generated token;
//! * the full [`SloReport`] is bit-identical **across worker counts** for a
//!   fixed policy — latencies are scheduler ticks, not wall time.
//!
//! This is the sweep behind the `bench_trace` binary (which emits
//! `BENCH_trace.json`, gated in CI) and the `tables --table trace` report.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use kelle::workloads::{PrefixHierarchy, SessionArchetype, Trace, TraceConfig, TraceEngine};
use kelle::{
    AdmissionPolicy, BatchReport, KelleEngine, PrefixSharingConfig, SchedulerConfig, ServeOptions,
    ServeRequest, SloReport, SloSpec,
};

/// Configuration of one trace-replay sweep.
#[derive(Debug, Clone)]
pub struct TracePerfConfig {
    /// The trace to generate and replay.
    pub trace: TraceConfig,
    /// Worker counts to replay at (every policy runs at each count).
    pub worker_counts: Vec<usize>,
    /// Admission policies in the shootout.
    pub policies: Vec<AdmissionPolicy>,
    /// Shared KV capacity, denominated as the footprint of this many cached
    /// tokens — small enough to queue the fleet, large enough to make
    /// progress.
    pub capacity_tokens: usize,
    /// The serving objective goodput is judged against.
    pub slo: SloSpec,
    /// Engine seed.
    pub seed: u64,
}

impl TracePerfConfig {
    /// The mixture every built-in configuration replays: mostly short chat
    /// turns, some multi-turn conversations with think time, a tail of
    /// long-form requests.
    fn archetypes() -> Vec<SessionArchetype> {
        vec![
            SessionArchetype::new("chat-short", 7, (1, 3)).with_decode_tokens((2, 3)),
            SessionArchetype::new("chat-multi", 2, (1, 3))
                .with_decode_tokens((2, 3))
                .with_turns((2, 2), (2, 6)),
            SessionArchetype::new("longform", 1, (4, 8)).with_decode_tokens((4, 6)),
        ]
    }

    fn sized(sessions: usize, worker_counts: Vec<usize>) -> Self {
        TracePerfConfig {
            trace: TraceConfig::poisson(sessions, 0.25)
                .with_hierarchy(PrefixHierarchy::new(4, 2, 2).with_users(2, 2))
                .with_archetypes(Self::archetypes()),
            worker_counts,
            policies: vec![
                AdmissionPolicy::Fcfs,
                AdmissionPolicy::ShortestPromptFirst,
                AdmissionPolicy::CapacityFit,
            ],
            capacity_tokens: 48,
            slo: SloSpec::new(25, 1.5),
            seed: 13,
        }
    }

    /// The quick configuration used by CI: the acceptance shape — a
    /// 1000-session Poisson trace, all three admission policies, worker
    /// counts 1 and 2.
    pub fn quick() -> Self {
        Self::sized(1000, vec![1, 2])
    }

    /// The full configuration for local benchmarking: a larger fleet and a
    /// wider worker sweep.
    pub fn full() -> Self {
        Self::sized(2000, vec![1, 2, 4])
    }

    /// A scaled-down trace for the `tables --table trace` report: the same
    /// overloaded shape at a fraction of the fleet.
    pub fn table() -> Self {
        let mut config = Self::sized(200, vec![1, 2]);
        config.capacity_tokens = 32;
        config
    }
}

/// One measured replay (one admission policy × one worker count).
#[derive(Debug, Clone)]
pub struct TracePerfRow {
    /// Admission policy of the replay.
    pub policy: AdmissionPolicy,
    /// Worker threads behind the engine.
    pub workers: usize,
    /// End-to-end wall time of the replay in seconds.
    pub wall_seconds: f64,
    /// Tokens generated (identical on every row by design).
    pub generated_tokens: u64,
    /// Wall-clock decode throughput: `generated_tokens / wall_seconds`.
    pub tokens_per_sec: f64,
    /// Every metric block of the replay's batch, SLO report included.
    pub report: BatchReport,
    /// Whether this row's token streams matched the first measured run
    /// (always asserted; recorded for the JSON artifact).
    pub streams_identical: bool,
    /// Whether this row's `SloReport` matched the same policy at the first
    /// worker count (always asserted; recorded for the JSON artifact).
    pub slo_identical: bool,
}

/// A complete trace-replay report.
#[derive(Debug, Clone)]
pub struct TracePerfReport {
    /// Workload label.
    pub workload: String,
    /// The configuration measured.
    pub config: TracePerfConfig,
    /// Trace shape: requests generated from the sessions.
    pub requests: usize,
    /// Trace shape: total prompt tokens across requests.
    pub prompt_tokens: usize,
    /// Trace shape: last arrival tick.
    pub horizon_ticks: u64,
    /// One row per policy × worker count, policies outermost.
    pub rows: Vec<TracePerfRow>,
}

/// Stable label for an admission policy in reports.
pub fn policy_label(policy: AdmissionPolicy) -> &'static str {
    match policy {
        AdmissionPolicy::Fcfs => "fcfs",
        AdmissionPolicy::ShortestPromptFirst => "shortest-prompt-first",
        AdmissionPolicy::CapacityFit => "capacity-fit",
    }
}

impl TracePerfReport {
    /// Serializes the report as JSON (hand-rolled: the workspace has no JSON
    /// dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"workload\": \"{}\",\n", self.workload));
        out.push_str(&format!(
            "  \"sessions\": {}, \"requests\": {}, \"prompt_tokens\": {}, \
             \"horizon_ticks\": {}, \"capacity_tokens\": {},\n",
            self.config.trace.sessions,
            self.requests,
            self.prompt_tokens,
            self.horizon_ticks,
            self.config.capacity_tokens,
        ));
        out.push_str(&format!(
            "  \"slo\": {{\"ttft_ticks\": {}, \"tpot_ticks\": {:.3}}},\n",
            self.config.slo.ttft_ticks, self.config.slo.tpot_ticks,
        ));
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let slo = &row.report.slo;
            out.push_str(&format!(
                "    {{\"policy\": \"{}\", \"workers\": {}, \"wall_seconds\": {:.6}, \
                 \"generated_tokens\": {}, \"tokens_per_sec\": {:.2}, \"ticks\": {}, \
                 \"shed\": {}, \
                 \"ttft\": {{\"p50\": {:.1}, \"p95\": {:.1}, \"p99\": {:.1}}}, \
                 \"tpot\": {{\"p50\": {:.3}, \"p95\": {:.3}, \"p99\": {:.3}}}, \
                 \"queue\": {{\"p50\": {:.1}, \"p95\": {:.1}, \"p99\": {:.1}, \"max\": {:.1}}}, \
                 \"goodput_requests\": {}, \"goodput_fraction\": {:.4}, \
                 \"goodput_tokens_per_kilotick\": {:.2}, \
                 \"streams_identical\": {}, \"slo_identical\": {}}}{}\n",
                policy_label(row.policy),
                row.workers,
                row.wall_seconds,
                row.generated_tokens,
                row.tokens_per_sec,
                slo.ticks,
                slo.shed,
                slo.ttft.p50,
                slo.ttft.p95,
                slo.ttft.p99,
                slo.tpot.p50,
                slo.tpot.p95,
                slo.tpot.p99,
                slo.queue.p50,
                slo.queue.p95,
                slo.queue.p99,
                slo.queue.max,
                slo.goodput_requests,
                slo.goodput_fraction(),
                slo.goodput_tokens_per_kilotick(),
                row.streams_identical,
                row.slo_identical,
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the JSON artifact (`BENCH_trace.json`).
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write errors.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_json().as_bytes())
    }
}

/// Builds an engine with the trace's hierarchy published (three nested
/// levels from one recording pass per leaf, deduplicated across leaves).
fn engine_with_hierarchy(config: &TracePerfConfig, trace: &Trace, workers: usize) -> KelleEngine {
    let engine = KelleEngine::builder()
        .prefix_sharing(PrefixSharingConfig::enabled())
        .workers(workers)
        .seed(config.seed)
        .build();
    let published: usize = trace
        .publications
        .iter()
        .map(|p| engine.publish_prefix_hierarchy(&p.tokens, &p.boundaries))
        .sum();
    assert!(
        published > 0,
        "the hierarchy must publish at least one level"
    );
    engine
}

fn requests_for(trace: &Trace) -> Vec<ServeRequest> {
    trace
        .requests
        .iter()
        .map(|r| {
            ServeRequest::builder(r.prompt.clone())
                .decode_len(r.decode_len)
                .arrival_tick(r.arrival_tick)
                .label("trace-replay")
                .build()
        })
        .collect()
}

/// Replays the trace once, timing the whole serve and collecting every
/// `(request, token)` streaming event in commit order.
fn replay(
    config: &TracePerfConfig,
    trace: &Trace,
    policy: AdmissionPolicy,
    workers: usize,
) -> (Vec<(usize, usize)>, SloReport, BatchReport, f64) {
    let engine = engine_with_hierarchy(config, trace, workers);
    let requests = requests_for(trace);
    let scheduler = SchedulerConfig::default()
        .with_kv_capacity_bytes(engine.kv_footprint_bytes(config.capacity_tokens))
        .with_admission(policy)
        .with_slo(config.slo);
    let mut events = Vec::with_capacity(trace.total_decode_tokens());
    let mut sink = |request: usize, token: usize| events.push((request, token));
    let start = Instant::now();
    let outcome = engine
        .serve(
            requests,
            ServeOptions::new()
                .parallel()
                .with_scheduler(scheduler)
                .streaming(&mut sink),
        )
        .expect("no chaos configured, no worker can be lost");
    let wall_s = start.elapsed().as_secs_f64();
    (events, outcome.slo.clone(), outcome.report(), wall_s)
}

/// Runs the shootout: every admission policy at every worker count.
///
/// # Panics
///
/// Panics if any row's token streams differ from the first measured run
/// (admission and worker counts must never change a token), or if a
/// policy's `SloReport` differs across worker counts (tick-denominated
/// latencies must not see threads).
pub fn run(config: TracePerfConfig) -> TracePerfReport {
    let trace = TraceEngine::new(config.trace.clone()).generate();
    let mut reference: Option<Vec<(usize, usize)>> = None;
    let mut rows = Vec::new();
    for &policy in &config.policies {
        let mut policy_slo: Option<SloReport> = None;
        for &workers in &config.worker_counts {
            let (events, slo, report, wall_s) = replay(&config, &trace, policy, workers);
            // Streams are compared as per-request token sequences: the
            // *interleaving* of commits legitimately differs across
            // admission policies (requests start at different ticks), the
            // tokens of each request must not.
            let mut streams = vec![Vec::new(); trace.requests.len()];
            for (request, token) in &events {
                streams[*request].push(*token);
            }
            let streams_identical = match &reference {
                None => {
                    reference = Some(events);
                    true
                }
                Some(expected) => {
                    let mut expected_streams = vec![Vec::new(); trace.requests.len()];
                    for (request, token) in expected {
                        expected_streams[*request].push(*token);
                    }
                    expected_streams == streams
                }
            };
            assert!(
                streams_identical,
                "{policy:?} at {workers} workers changed a token stream"
            );
            let slo_identical = match &policy_slo {
                None => {
                    policy_slo = Some(slo.clone());
                    true
                }
                Some(expected) => expected == &slo,
            };
            assert!(
                slo_identical,
                "{policy:?} SLO report changed between worker counts"
            );
            rows.push(TracePerfRow {
                policy,
                workers,
                wall_seconds: wall_s,
                generated_tokens: slo.total_tokens,
                tokens_per_sec: slo.total_tokens as f64 / wall_s.max(f64::MIN_POSITIVE),
                report,
                streams_identical,
                slo_identical,
            });
        }
    }
    TracePerfReport {
        workload: "trace_fleet_poisson".to_string(),
        requests: trace.requests.len(),
        prompt_tokens: trace.total_prompt_tokens(),
        horizon_ticks: trace.horizon_ticks,
        config,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TracePerfConfig {
        let mut config = TracePerfConfig::sized(24, vec![1, 2]);
        config.capacity_tokens = 24;
        config
    }

    #[test]
    fn shootout_asserts_stream_and_slo_identity_while_measuring() {
        let report = run(tiny());
        assert_eq!(report.rows.len(), 6, "3 policies x 2 worker counts");
        assert!(report.rows.iter().all(|r| r.streams_identical));
        assert!(report.rows.iter().all(|r| r.slo_identical));
        let generated = report.rows[0].generated_tokens;
        assert!(generated > 0);
        assert!(report.rows.iter().all(|r| r.generated_tokens == generated));
        // Within a policy the SLO report is identical across worker counts.
        for pair in report.rows.chunks(2) {
            assert_eq!(pair[0].policy, pair[1].policy);
            assert_eq!(pair[0].report.slo, pair[1].report.slo);
        }
        // Every row actually judged the whole fleet.
        for row in &report.rows {
            assert_eq!(row.report.slo.requests as usize, report.requests);
            assert_eq!(row.report.slo.shed, 0);
        }
    }

    #[test]
    fn json_carries_the_slo_percentiles() {
        let report = run(tiny());
        let json = report.to_json();
        assert!(json.contains("\"workload\": \"trace_fleet_poisson\""));
        assert!(json.contains("\"policy\": \"fcfs\""));
        assert!(json.contains("\"policy\": \"shortest-prompt-first\""));
        assert!(json.contains("\"policy\": \"capacity-fit\""));
        assert!(json.contains("\"ttft\""));
        assert!(json.contains("\"tpot\""));
        assert!(json.contains("\"queue\""));
        assert!(json.contains("\"goodput_fraction\""));
        assert!(json.contains("\"streams_identical\": true"));
        assert!(json.contains("\"slo_identical\": true"));
    }
}
