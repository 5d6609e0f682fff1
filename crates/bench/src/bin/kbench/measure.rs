//! `kbench run`: set-up, the timed phase, the output check and the
//! end-to-end metrics of one workload.

use std::time::Instant;

use crate::drive::{self, Record, Round, Setup, Stop};
use crate::json::Json;
use crate::spans::Tracer;
use crate::spec::{self, MetricSpec};
use crate::stats::{self, Fnv, Samples, SplitMix64};
use crate::workloads::{Workload, VOCAB};

/// Set-ups per run: at least five, and up to twenty-five while they take
/// under a second together.  `setup_s` is their median, so one slow page-in
/// does not decide it and a set-up of a few milliseconds is still steady.
const SETUP_REPEATS: std::ops::RangeInclusive<usize> = 5..=25;
const SETUP_SECONDS: f64 = 1.0;

/// Requests sampled for the cold replay, and the forward passes (prompt plus
/// decode tokens) the replay may spend beyond its first request.  The replay
/// runs the slow fault lane on one thread, so the budget bounds the check to
/// a few seconds.
const CHECK_SAMPLES: usize = 16;
const CHECK_PASSES: usize = 160;

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a percentile (0 for anything else) and whether that
    /// many support it under the ten-samples-beyond rule.
    pub samples: usize,
    pub supported: bool,
}

impl Metric {
    pub fn new(spec: &MetricSpec, value: f64) -> Self {
        Metric {
            name: spec.name,
            value,
            unit: spec.unit,
            samples: 0,
            supported: true,
        }
    }
}

/// What `kbench run` reports for one workload.
pub struct RunResult {
    pub workload: Workload,
    pub seed: u64,
    pub metrics: Vec<Metric>,
    /// Rounds the window held.
    pub rounds: usize,
    /// The per-round values behind each wall-clock metric, in round order.
    pub per_round: Vec<(&'static str, Vec<f64>)>,
    /// Latency tails of the median round: printed, not gated.
    pub tails: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
    /// FNV digest of round 0's token streams (every round repeats them).
    pub digest: String,
    pub failures: Vec<String>,
}

/// Builds the workload repeatedly, returning the last set-up and the median
/// build time in seconds.
pub fn timed_set_up(workload: Workload, seed: u64, smoke: bool) -> (Setup, f64) {
    let mut seconds = Vec::new();
    loop {
        let begin = Instant::now();
        let setup = drive::set_up(workload, seed, smoke);
        seconds.push(begin.elapsed().as_secs_f64());
        let enough = seconds.len() >= *SETUP_REPEATS.start()
            && (smoke
                || seconds.iter().sum::<f64>() >= SETUP_SECONDS
                || seconds.len() >= *SETUP_REPEATS.end());
        if enough {
            return (setup, stats::median(&seconds));
        }
    }
}

pub fn run(workload: Workload, seed: u64, seconds: f64, smoke: bool) -> RunResult {
    let (setup, setup_s) = timed_set_up(workload, seed, smoke);
    let stop = if smoke {
        Stop::Rounds(2)
    } else {
        Stop::Window(seconds)
    };
    let rounds = drive::run(&setup, stop, &mut Tracer::off());
    let failures = check(&setup, &rounds);
    let (metrics, per_round) = end_to_end(&rounds, setup_s);
    RunResult {
        workload,
        seed,
        metrics,
        per_round,
        tails: tails(&rounds),
        rounds: rounds.len(),
        attempted: rounds.iter().map(|round| round.records.len()).sum(),
        failed: failures.len(),
        digest: digest(&rounds[0]),
        failures,
    }
}

fn ttft_ms(round: &Round) -> Vec<f64> {
    round.records.iter().filter_map(Record::ttft_ms).collect()
}

fn gaps_ms(round: &Round) -> Vec<f64> {
    round.records.iter().flat_map(Record::gaps_ms).collect()
}

/// Percentile `q` of each round's samples: the median round as a metric
/// (carrying round 0's sample count — every round has the same), and the
/// per-round values.
fn round_percentile(
    spec: &MetricSpec,
    rounds: &[Round],
    samples: fn(&Round) -> Vec<f64>,
    q: f64,
) -> (Metric, Vec<f64>) {
    let each: Vec<Samples> = rounds.iter().map(|r| Samples::new(samples(r))).collect();
    let values: Vec<f64> = each.iter().map(|s| s.percentile(q)).collect();
    let metric = Metric {
        samples: each[0].len(),
        supported: each[0].supports(q),
        ..Metric::new(spec, stats::median(&values))
    };
    (metric, values)
}

/// The end-to-end metrics, in `BENCHMARK.json` order, and the per-round
/// values behind the wall-clock ones.  Wall-clock metrics are computed per
/// round and the median round is reported; the simulated and
/// tick-denominated ones repeat exactly per round and come from round 0.
fn end_to_end(rounds: &[Round], setup_s: f64) -> (Vec<Metric>, Vec<(&'static str, Vec<f64>)>) {
    let first = &rounds[0];
    let mut per_round = Vec::new();
    let mut keep = |(metric, values): (Metric, Vec<f64>)| {
        per_round.push((metric.name, values));
        metric
    };
    let metrics = spec::END_TO_END
        .iter()
        .map(|metric| match metric.name {
            "setup_s" => Metric::new(metric, setup_s),
            "tokens_per_s" => {
                let rates: Vec<f64> = rounds
                    .iter()
                    .map(|round| round.tokens() as f64 / round.wall_s)
                    .collect();
                keep((Metric::new(metric, stats::median(&rates)), rates))
            }
            "ttft_ms_p50" => keep(round_percentile(metric, rounds, ttft_ms, 0.5)),
            "tpot_ms_p50" => keep(round_percentile(metric, rounds, gaps_ms, 0.5)),
            "peak_rss_mb" => Metric::new(metric, stats::peak_rss_mb().unwrap_or(0.0)),
            "sim_latency_s" => {
                Metric::new(metric, first.records.iter().map(|r| r.sim_latency_s).sum())
            }
            "sim_energy_j" => {
                Metric::new(metric, first.records.iter().map(|r| r.sim_energy_j).sum())
            }
            "slo_goodput_share" => Metric::new(metric, first.report.slo.goodput_fraction()),
            other => unreachable!("end-to-end metric {other} has no measurement"),
        })
        .collect();
    (metrics, per_round)
}

/// The latency tails of the median round.  They are per-layer metrics — on
/// the reference host they do not repeat well enough to gate a change — but
/// a run prints them because `tpot_ms_p95` against `tpot_ms_p50` is how a
/// submit stalling every other stream shows.
pub fn tails(rounds: &[Round]) -> Vec<Metric> {
    vec![
        round_percentile(spec::per_layer("ttft_ms_p90"), rounds, ttft_ms, 0.9).0,
        round_percentile(spec::per_layer("tpot_ms_p95"), rounds, gaps_ms, 0.95).0,
    ]
}

/// FNV digest of one round's token streams.
fn digest(round: &Round) -> String {
    let mut fnv = Fnv::new();
    for record in &round.records {
        fnv.word(record.request.id as u64);
        fnv.word(record.tokens.len() as u64);
        for &token in &record.tokens {
            fnv.word(token as u64);
        }
    }
    fnv.hex()
}

/// The output check.  Every request must finish unshed with exactly its
/// decode length in tokens below the vocabulary; every round must repeat
/// round 0 token for token; and a seeded sample of round 0 is replayed cold —
/// one-shot `serve_request` on a second engine with prefix sharing off —
/// and must match token for token, which is the repository's own
/// bit-identity contract.  Returns one line per failed request.
pub fn check(setup: &Setup, rounds: &[Round]) -> Vec<String> {
    let mut failures = Vec::new();
    let mut sound: Vec<&Record> = Vec::new();
    for (index, round) in rounds.iter().enumerate() {
        let mut fail = |record: &Record, what: &str| {
            failures.push(format!(
                "request {} (round {index}): {what}",
                record.request.id
            ));
        };
        for (record, reference) in round.records.iter().zip(&rounds[0].records) {
            if record.shed {
                fail(record, "shed");
            } else if record.tokens.len() != record.request.decode_len {
                fail(record, "wrong number of tokens");
            } else if record.tokens.iter().any(|&t| t >= VOCAB) {
                fail(record, "token outside the vocabulary");
            } else if record.tokens != reference.tokens {
                fail(record, "replay differs from round 0");
            } else if index == 0 {
                sound.push(record);
            }
        }
        if round.records.len() != rounds[0].records.len() {
            failures.push(format!("round {index}: wrong number of requests"));
        }
    }
    let cold = drive::default_engine(1, false);
    let mut rng = SplitMix64::derive(setup.seed, 0xc01d, sound.len() as u64);
    let mut passes = 0;
    for _ in 0..CHECK_SAMPLES.min(sound.len()) {
        let record = sound.swap_remove(rng.range(0, sound.len() - 1));
        let request = &record.request;
        passes += request.prompt.len() + request.decode_len;
        if passes > CHECK_PASSES && passes > request.prompt.len() + request.decode_len {
            break;
        }
        let replayed = cold.serve_one(&request.prompt, request.decode_len);
        if replayed.generated != record.tokens {
            failures.push(format!(
                "request {} (round 0): cold replay differs",
                request.id
            ));
        }
    }
    failures
}

impl RunResult {
    /// The one-line result the PR driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn driver_line(&self) -> String {
        driver_line(self.failed == 0, self.attempted, self.failed, &self.metrics)
    }

    /// The richer per-workload entry of a result-set file.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seed", Json::UInt(self.seed)),
            ("attempted", Json::UInt(self.attempted as u64)),
            ("failed", Json::UInt(self.failed as u64)),
            ("rounds", Json::UInt(self.rounds as u64)),
            ("digest", Json::str(&self.digest)),
            ("metrics", metrics_json(&self.metrics)),
            (
                "per_round",
                Json::obj(self.per_round.iter().map(|(name, values)| {
                    (
                        *name,
                        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
                    )
                })),
            ),
        ])
    }

    pub fn print_table(&self) {
        println!(
            "workload {}  seed {}  rounds {}  attempted {}  failed {}  digest {}",
            self.workload.name(),
            self.seed,
            self.rounds,
            self.attempted,
            self.failed,
            self.digest,
        );
        print_metrics(&self.metrics);
        println!("  latency tails of the median round (per-layer metrics, not gated):");
        print_metrics(&self.tails);
        for failure in &self.failures {
            println!("  FAILED {failure}");
        }
    }
}

pub fn driver_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(attempted as u64)),
        ("failed", Json::UInt(failed as u64)),
        ("metrics", metrics_json(metrics)),
    ])
    .compact()
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

pub fn print_metrics(metrics: &[Metric]) {
    for metric in metrics {
        let note = match (metric.samples, metric.supported) {
            (0, _) => String::new(),
            (n, true) => format!("  (n={n})"),
            (n, false) => format!("  (n={n}, fewer than ten samples beyond)"),
        };
        println!(
            "  {:<34} {:>16.6} {}{note}",
            metric.name, metric.value, metric.unit
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What keeps the benchmark from rotting: a workload at a scale of a few
    /// tiny requests, through its real driver and its real output check.
    fn smoke(workload: Workload) {
        for seed in [7, 13] {
            let result = run(workload, seed, 0.0, true);
            assert!(result.attempted <= 24, "smoke scale is a few tiny requests");
            assert_eq!(result.failures, Vec::<String>::new());
            assert!(result.attempted >= 2);
            assert_eq!(result.rounds, 2);
            assert_eq!(result.metrics.len(), spec::END_TO_END.len());
            for metric in &result.metrics {
                assert!(
                    metric.value.is_finite() && metric.value > 0.0,
                    "{} = {}",
                    metric.name,
                    metric.value
                );
            }
            let line = crate::json::parse(&result.driver_line()).unwrap();
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(line.get("failed"), Some(&Json::UInt(0)));
        }
    }

    #[test]
    fn decode_steady_smoke_passes_its_output_check() {
        smoke(Workload::DecodeSteady);
    }

    #[test]
    fn prefill_shared_smoke_passes_its_output_check() {
        smoke(Workload::PrefillShared);
    }

    #[test]
    fn fleet_trace_smoke_passes_its_output_check() {
        smoke(Workload::FleetTrace);
    }

    #[test]
    fn front_chat_smoke_passes_its_output_check() {
        smoke(Workload::FrontChat);
    }

    #[test]
    fn digest_and_simulated_metrics_repeat_exactly_per_seed() {
        let exact = |result: &RunResult| -> Vec<f64> {
            result
                .metrics
                .iter()
                .filter(|m| m.name.starts_with("sim_") || m.name.starts_with("slo_"))
                .map(|m| m.value)
                .collect()
        };
        let first = run(Workload::FleetTrace, 7, 0.0, true);
        let again = run(Workload::FleetTrace, 7, 0.0, true);
        let other = run(Workload::FleetTrace, 13, 0.0, true);
        assert_eq!(first.digest, again.digest);
        assert_eq!(exact(&first), exact(&again));
        assert_ne!(first.digest, other.digest);
    }

    #[test]
    fn the_output_check_catches_a_wrong_token_a_short_stream_and_a_shed() {
        let setup = drive::set_up(Workload::DecodeSteady, 7, true);
        let mut rounds = drive::run(&setup, Stop::Rounds(2), &mut Tracer::off());
        assert!(check(&setup, &rounds).is_empty());
        // Every round-0 request is within the cold-replay sample at this scale.
        rounds[0].records[0].tokens[1] ^= 1;
        rounds[0].records[1].tokens.pop();
        rounds[1].records[1].shed = true;
        let failures = check(&setup, &rounds);
        let has = |what: &str| failures.iter().any(|f| f.contains(what));
        assert!(
            has("request 0 (round 0): cold replay differs"),
            "{failures:?}"
        );
        assert!(has("request 1 (round 0): wrong number of tokens"));
        assert!(has("request 1 (round 1): shed"));
        // Round 1 of request 0 no longer matches the corrupted round 0.
        assert!(has("request 0 (round 1): replay differs from round 0"));
    }
}
