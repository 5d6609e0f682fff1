//! Front-end executor-protocol sweep: queue traffic and throughput of the
//! sticky-shard executor vs. the work-stealing pool on a long-lived fleet.
//!
//! Per worker count the sweep serves the *same* deterministic
//! [`FrontScenario`] fleet twice — once through `kelle::front` (sticky:
//! sessions pinned to worker shards, only per-tick step results cross
//! threads) and once through `serve(.., ServeOptions::new().parallel())`
//! over the same tick-0 fleet (stealing: whole sessions round-trip through
//! the shared task queue every tick; the very reference the front
//! determinism gate compares against) — and reports, per row:
//!
//! * coordinator↔worker queue crossings, total and per scheduler tick (the
//!   number the sticky shard exists to shrink);
//! * sessions migrated between workers (always zero under pinning);
//! * end-to-end decode throughput (fleet decode tokens / wall time).
//!
//! Token streams are asserted identical between every row and the first
//! measured run while being timed — the queue-traffic win can never come
//! from computing something different.  This is the sweep behind the
//! `bench_front` binary (which emits `BENCH_front.json`, gated in CI) and
//! the `tables --table front` report.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use kelle::workloads::FrontScenario;
use kelle::{
    BatchOutcome, FrontConfig, KelleEngine, PrefixSharingConfig, ServeOptions, ServeRequest,
    StreamPoll, TokenStream,
};

/// Row label of the front's sticky-shard executor.
const STICKY: &str = "sticky";
/// Row label of the synchronous path's work-stealing pool.
const STEALING: &str = "stealing";

/// Configuration of one front-end sweep.
#[derive(Debug, Clone)]
pub struct FrontPerfConfig {
    /// The long-lived fleet and the worker counts to sweep.
    pub scenario: FrontScenario,
    /// Engine seed.
    pub seed: u64,
}

impl FrontPerfConfig {
    /// The quick configuration used by CI: the acceptance shape — the
    /// 16-session long-lived fleet (96 decode steps each) at 1, 2 and 4
    /// workers.
    pub fn quick() -> Self {
        FrontPerfConfig {
            scenario: FrontScenario::long_lived_fleet(),
            seed: 23,
        }
    }

    /// The full configuration for local benchmarking: a longer decode and a
    /// wider worker sweep.
    pub fn full() -> Self {
        let mut scenario = FrontScenario::long_lived_fleet().with_worker_counts(vec![1, 2, 4, 8]);
        scenario.fleet = scenario.fleet.with_decode_len(192);
        FrontPerfConfig { scenario, seed: 23 }
    }
}

/// One measured front-end run (one worker count × one executor protocol).
#[derive(Debug, Clone)]
pub struct FrontPerfRow {
    /// Worker threads behind the front.
    pub workers: usize,
    /// Executor protocol driving the decode ticks: `"sticky"` (the front)
    /// or `"stealing"` (the synchronous parallel path).
    pub executor: &'static str,
    /// Fleet decode tokens generated (identical on every row by design).
    pub decode_tokens: usize,
    /// End-to-end wall time (submit through final commit) in seconds.
    pub wall_seconds: f64,
    /// End-to-end decode throughput: `decode_tokens / wall_seconds`.
    pub decode_tokens_per_sec: f64,
    /// Coordinator↔worker queue crossings over the whole serve.
    pub queue_crossings: u64,
    /// Queue crossings per scheduler tick.
    pub crossings_per_tick: f64,
    /// Sessions whose decode commit came from a different worker than the
    /// previous one (zero under sticky pinning).
    pub sessions_migrated: u64,
    /// Scheduler ticks taken (identical across executors by design).
    pub ticks: u64,
    /// Whether this row's token streams matched the first measured run
    /// (always asserted; recorded for the JSON artifact).
    pub streams_identical: bool,
}

/// A complete front-end sweep report.
#[derive(Debug, Clone)]
pub struct FrontPerfReport {
    /// Scenario label.
    pub workload: String,
    /// The configuration measured.
    pub config: FrontPerfConfig,
    /// Two rows (sticky, stealing) per worker count, in sweep order.
    pub rows: Vec<FrontPerfRow>,
}

impl FrontPerfReport {
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
            out.push_str(&format!(
                "    {{\"workers\": {}, \"executor\": \"{}\", \"decode_tokens\": {}, \
                 \"wall_seconds\": {:.6}, \"decode_tokens_per_sec\": {:.2}, \
                 \"queue_crossings\": {}, \"crossings_per_tick\": {:.4}, \
                 \"sessions_migrated\": {}, \"ticks\": {}, \"streams_identical\": {}}}{}\n",
                row.workers,
                row.executor,
                row.decode_tokens,
                row.wall_seconds,
                row.decode_tokens_per_sec,
                row.queue_crossings,
                row.crossings_per_tick,
                row.sessions_migrated,
                row.ticks,
                row.streams_identical,
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the JSON artifact (`BENCH_front.json`).
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write errors.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_json().as_bytes())
    }
}

fn engine(config: &FrontPerfConfig, workers: usize) -> KelleEngine {
    KelleEngine::builder()
        .prefix_sharing(PrefixSharingConfig::enabled())
        .workers(workers)
        .seed(config.seed)
        .build()
}

fn requests_for(scenario: &FrontScenario) -> Vec<ServeRequest> {
    scenario
        .fleet
        .prompts()
        .into_iter()
        .map(|prompt| {
            ServeRequest::builder(prompt)
                .decode_len(scenario.fleet.decode_len)
                .label("front-serving")
                .build()
        })
        .collect()
}

/// One way of serving the fleet: `(engine, requests, stream capacity)` to
/// every token stream plus the batch outcome.
type ServeFleet =
    fn(&KelleEngine, Vec<ServeRequest>, Option<usize>) -> (Vec<Vec<usize>>, BatchOutcome);

/// Serves the fleet once through `serve`, timing the whole serve (submission
/// through final commit) and collecting every token stream.
fn serve_fleet(
    config: &FrontPerfConfig,
    workers: usize,
    serve: ServeFleet,
) -> (Vec<Vec<usize>>, BatchOutcome, f64) {
    let engine = engine(config, workers);
    assert!(
        engine.publish_prefix(&config.scenario.fleet.system_prompt()),
        "publication must succeed"
    );
    let requests = requests_for(&config.scenario);
    let start = Instant::now();
    let (streams, outcome) = serve(&engine, requests, config.scenario.stream_capacity);
    let wall_s = start.elapsed().as_secs_f64();
    (streams, outcome, wall_s)
}

/// The stealing row: the same tick-0 fleet through the synchronous path's
/// work-stealing pool (which has no stream buffers to bound).
fn serve_through_pool(
    engine: &KelleEngine,
    requests: Vec<ServeRequest>,
    _stream_capacity: Option<usize>,
) -> (Vec<Vec<usize>>, BatchOutcome) {
    let mut streams = vec![Vec::new(); requests.len()];
    let mut sink = |request: usize, token: usize| streams[request].push(token);
    let outcome = engine
        .serve(
            requests,
            ServeOptions::new().parallel().streaming(&mut sink),
        )
        .expect("benchmark fleet runs without chaos");
    (streams, outcome)
}

/// The sticky row: the fleet through `kelle::front`.
fn serve_through_front(
    engine: &KelleEngine,
    requests: Vec<ServeRequest>,
    stream_capacity: Option<usize>,
) -> (Vec<Vec<usize>>, BatchOutcome) {
    let mut front_config = FrontConfig::default();
    if let Some(capacity) = stream_capacity {
        front_config = front_config.with_stream_capacity(capacity);
    }
    engine.front(front_config, |front| {
        let handles: Vec<TokenStream> = requests
            .into_iter()
            .map(|request| front.submit(request).expect("unbounded admission queue"))
            .collect();
        handles
            .iter()
            .map(|stream| {
                let mut tokens = Vec::new();
                loop {
                    match front.recv(stream) {
                        StreamPoll::Token(token) => tokens.push(token),
                        StreamPoll::Finished { shed } => {
                            assert_eq!(shed, None, "benchmark fleet finishes naturally");
                            break;
                        }
                        StreamPoll::Pending => unreachable!("live streams progress"),
                    }
                }
                tokens
            })
            .collect::<Vec<_>>()
    })
}

/// Runs the full sweep: both executor protocols at every worker count.
///
/// # Panics
///
/// Panics if any row generates a different token stream than the first
/// measured run (it cannot, by the front's determinism guarantee — this is
/// the benchmark's self-check), or if the sticky executor fails to cross
/// the queue strictly less per tick than the stealing executor at any
/// worker count (the structural win the subsystem exists for).
pub fn run(config: FrontPerfConfig) -> FrontPerfReport {
    let decode_tokens = config.scenario.total_decode_tokens();
    let mut reference: Option<Vec<Vec<usize>>> = None;
    let mut rows = Vec::new();
    for &workers in &config.scenario.worker_counts {
        let mut per_kind = Vec::new();
        let protocols: [(&'static str, ServeFleet); 2] = [
            (STICKY, serve_through_front),
            (STEALING, serve_through_pool),
        ];
        for (kind, serve) in protocols {
            let (streams, outcome, wall_s) = serve_fleet(&config, workers, serve);
            let streams_identical = match &reference {
                None => {
                    reference = Some(streams);
                    true
                }
                Some(expected) => expected == &streams,
            };
            assert!(
                streams_identical,
                "{kind} at {workers} workers changed a token stream"
            );
            per_kind.push(FrontPerfRow {
                workers,
                executor: kind,
                decode_tokens,
                wall_seconds: wall_s,
                decode_tokens_per_sec: decode_tokens as f64 / wall_s.max(f64::MIN_POSITIVE),
                queue_crossings: outcome.parallel.queue_crossings,
                crossings_per_tick: outcome.parallel.crossings_per_tick(),
                sessions_migrated: outcome.parallel.sessions_migrated,
                ticks: outcome.parallel.ticks,
                streams_identical,
            });
        }
        let (sticky, stealing) = (&per_kind[0], &per_kind[1]);
        assert!(
            sticky.crossings_per_tick < stealing.crossings_per_tick,
            "sticky must cross the queue strictly less per tick at {workers} workers \
             (sticky {:.4} !< stealing {:.4})",
            sticky.crossings_per_tick,
            stealing.crossings_per_tick,
        );
        rows.extend(per_kind);
    }
    FrontPerfReport {
        workload: "front_long_lived_fleet".to_string(),
        config,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kelle::workloads::SharedPromptScenario;

    #[test]
    fn sweep_asserts_identical_streams_and_the_sticky_crossing_win() {
        let config = FrontPerfConfig {
            scenario: FrontScenario::new(
                SharedPromptScenario::new(3, 24, 4).with_decode_len(6),
                vec![1, 2],
            ),
            seed: 5,
        };
        let report = run(config);
        // Two executor rows per worker count, streams always identical.
        assert_eq!(report.rows.len(), 4);
        assert!(report.rows.iter().all(|r| r.streams_identical));
        assert!(report.rows.iter().all(|r| r.decode_tokens == 18));
        for pair in report.rows.chunks(2) {
            let (sticky, stealing) = (&pair[0], &pair[1]);
            assert_eq!(sticky.executor, STICKY);
            assert_eq!(stealing.executor, STEALING);
            assert_eq!(sticky.workers, stealing.workers);
            // Same deterministic tick count, strictly less queue traffic,
            // and pinning never migrates a session.
            assert_eq!(sticky.ticks, stealing.ticks);
            assert!(sticky.queue_crossings < stealing.queue_crossings);
            assert_eq!(sticky.sessions_migrated, 0);
            assert!(sticky.decode_tokens_per_sec > 0.0);
        }
    }

    #[test]
    fn a_bounded_stream_capacity_sweeps_without_changing_tokens() {
        let fleet = SharedPromptScenario::new(2, 16, 4).with_decode_len(5);
        let unbounded = run(FrontPerfConfig {
            scenario: FrontScenario::new(fleet.clone(), vec![2]),
            seed: 5,
        });
        let bounded = run(FrontPerfConfig {
            scenario: FrontScenario::new(fleet, vec![2]).with_stream_capacity(2),
            seed: 5,
        });
        for (a, b) in unbounded.rows.iter().zip(bounded.rows.iter()) {
            assert_eq!(a.decode_tokens, b.decode_tokens);
            assert_eq!(a.executor, b.executor);
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let report = FrontPerfReport {
            workload: "front_long_lived_fleet".into(),
            config: FrontPerfConfig::quick(),
            rows: vec![
                FrontPerfRow {
                    workers: 2,
                    executor: STICKY,
                    decode_tokens: 1536,
                    wall_seconds: 0.5,
                    decode_tokens_per_sec: 3072.0,
                    queue_crossings: 64,
                    crossings_per_tick: 0.6154,
                    sessions_migrated: 0,
                    ticks: 104,
                    streams_identical: true,
                },
                FrontPerfRow {
                    workers: 2,
                    executor: STEALING,
                    decode_tokens: 1536,
                    wall_seconds: 0.75,
                    decode_tokens_per_sec: 2048.0,
                    queue_crossings: 3104,
                    crossings_per_tick: 29.8462,
                    sessions_migrated: 3,
                    ticks: 104,
                    streams_identical: true,
                },
            ],
        };
        let json = report.to_json();
        assert!(json.contains("\"workload\": \"front_long_lived_fleet\""));
        assert!(json.contains("\"executor\": \"sticky\""));
        assert!(json.contains("\"executor\": \"stealing\""));
        assert!(json.contains("\"crossings_per_tick\": 0.6154"));
        assert!(json.contains("\"sessions_migrated\": 0"));
        assert!(json.contains("\"streams_identical\": true"));
    }
}
