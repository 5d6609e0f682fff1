//! `kbench trace`: the separate traced run that produces the per-layer
//! numbers.
//!
//! It runs one round of the workload with spans on, then the layer ladder on
//! the workload's own first requests, then the workload-independent
//! microbenchmarks of `kbench layers`.  End-to-end metrics never come from
//! here.
//!
//! The tracing overhead is not taken as the difference between a traced and
//! an untraced run: on the reference host two back-to-back runs of the same
//! round differ by up to a tenth, a hundred thousand times what recording a
//! few hundred spans costs.  It is computed instead, as the spans a round
//! records times the measured cost of recording one, over the round's time.

use std::path::PathBuf;

use crate::drive::{self, Record, Round, Stop};
use crate::json::Json;
use crate::ladder::{self, Ladder, LADDER_PASSES, RUNGS};
use crate::layers;
use crate::measure::{self, Metric};
use crate::spans::Tracer;
use crate::spec;
use crate::stats::{self, Samples};
use crate::workloads::{Request, Traffic, Workload};

pub struct TraceResult {
    pub workload: Workload,
    pub seed: u64,
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    ladder: Ladder,
    tracer: Tracer,
}

/// What recording one span costs, in seconds: the median of five batches of
/// spans pushed into a fresh tracer.
fn span_cost_s() -> f64 {
    const BATCH: usize = 20_000;
    let costs: Vec<f64> = (0..5)
        .map(|_| {
            let mut tracer = Tracer::on();
            let begin = std::time::Instant::now();
            for i in 0..BATCH as u64 {
                tracer.span("tick", i, i + 1, None, Some(i as usize));
            }
            std::hint::black_box(tracer.spans().len());
            begin.elapsed().as_secs_f64() / BATCH as f64
        })
        .collect();
    stats::median(&costs)
}

/// The workload's first requests, for the ladder.
fn first_requests(setup: &drive::Setup, passes: usize) -> Vec<Request> {
    match setup.workload.traffic() {
        Traffic::Replayed => ladder::select(setup.inputs.list.iter().cloned(), passes),
        Traffic::ClosedLoop { clients, .. } => ladder::select(
            (0..).flat_map(|k| {
                (0..clients)
                    .map(move |c| setup.workload.client_request(setup.seed, c, k, setup.smoke))
            }),
            passes,
        ),
    }
}

pub fn run(workload: Workload, seed: u64, smoke: bool) -> TraceResult {
    let setup = drive::set_up(workload, seed, smoke);
    let mut tracer = Tracer::on();
    let traced = drive::run(&setup, Stop::Rounds(1), &mut tracer);
    let failures = measure::check(&setup, &traced);
    let traced = &traced[0];
    let workload_spans = tracer.spans().len();
    let passes = if smoke { 24 } else { LADDER_PASSES };
    let ladder = ladder::run(&first_requests(&setup, passes), &mut tracer);

    let mut metrics = layers::run();
    let mut push = |name: &str, value: f64| {
        metrics.push(Metric::new(spec::per_layer(name), value));
    };
    for (name, value) in workload_metrics(&setup, traced, &tracer, &ladder) {
        push(name, value);
    }
    push(
        "trace.overhead_share",
        workload_spans as f64 * span_cost_s() / traced.wall_s,
    );
    push("trace.spans", workload_spans as f64);
    metrics.extend(measure::tails(std::slice::from_ref(traced)));

    // Report in registry order, and fail loudly if a metric was forgotten
    // or measured twice.
    let metrics: Vec<Metric> = spec::PER_LAYER
        .iter()
        .map(|spec| {
            let mut found = metrics.iter().filter(|m| m.name == spec.name);
            let metric = found
                .next()
                .unwrap_or_else(|| panic!("{} was not measured", spec.name));
            assert!(found.next().is_none(), "{} was measured twice", spec.name);
            metric.clone()
        })
        .collect();
    TraceResult {
        workload,
        seed,
        metrics,
        attempted: traced.records.len(),
        failed: failures.len(),
        failures,
        ladder,
        tracer,
    }
}

/// Per-layer metrics taken from the traced run and the ladder.
fn workload_metrics(
    setup: &drive::Setup,
    traced: &Round,
    tracer: &Tracer,
    ladder: &Ladder,
) -> Vec<(&'static str, f64)> {
    let report = &traced.report;
    let records = &traced.records;
    let sum = |f: &dyn Fn(&Record) -> u64| records.iter().map(f).sum::<u64>() as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let tokens = sum(&|r| r.tokens.len() as u64);
    let recomputed = sum(&|r| r.recomputed_entries);
    let ticks = Samples::new(traced.tick_ms.clone());
    let p50 = |values: Vec<f64>| Samples::new(values).percentile(0.5);
    // The front's own calls where the workload uses the front, the ladder's
    // front rung on the same requests where it does not.
    let (submit_ms, pump_ms) = match setup.workload.traffic() {
        Traffic::ClosedLoop { .. } => (tracer.durations_ms("submit"), tracer.durations_ms("pump")),
        Traffic::Replayed => (ladder.submit_ms.clone(), ladder.pump_ms.clone()),
    };
    let shares = ladder.shares();
    let mut out = vec![
        (
            "model.fault_words_per_token",
            ladder.fault_words as f64 / ladder.passes as f64,
        ),
        ("model.fault_share", ladder.added_share(3)),
        (
            "cache.aerp.evictions_per_token",
            ratio(sum(&|r| r.evictions), tokens),
        ),
        (
            "cache.aerp.recompute_share",
            ratio(recomputed, recomputed + sum(&|r| r.kv_entries_read)),
        ),
        ("scheduler.ticks", report.slo.ticks as f64),
        (
            "scheduler.batch_size_mean",
            ratio(
                traced.tick_tokens.iter().sum::<usize>() as f64,
                traced.tick_tokens.len() as f64,
            ),
        ),
        ("scheduler.tick_ms_p50", ticks.percentile(0.5)),
        ("scheduler.tick_ms_p95", ticks.percentile(0.95)),
        ("scheduler.queue_wait_ticks_p50", report.slo.queue.p50),
        ("scheduler.queue_wait_ticks_p95", report.slo.queue.p95),
        ("scheduler.ttft_ticks_p95", report.slo.ttft.p95),
        ("scheduler.overhead_share", ladder.added_share(4)),
        (
            "parallel.crossings_per_tick",
            report.parallel.crossings_per_tick(),
        ),
        (
            "parallel.sessions_migrated",
            report.parallel.sessions_migrated as f64,
        ),
        ("parallel.overhead_share_w1", ladder.added_share(5)),
        (
            "parallel.speedup_w2",
            ladder.rung_s[4] / ladder.parallel_w2_s,
        ),
        ("front.submit_ms_p50", p50(submit_ms)),
        ("front.pump_ms_p50", p50(pump_ms)),
        ("front.overhead_share", ladder.added_share(6)),
        (
            "prefix.hit_token_share",
            ratio(
                sum(&|r| r.prefix_hit_tokens as u64),
                sum(&|r| r.request.prompt.len() as u64),
            ),
        ),
        (
            "prefix.dedup_bytes",
            report.prefix.deduplicated_bytes as f64,
        ),
        ("tier.promotions", report.tiering.promotions as f64),
        ("tier.demotions", report.tiering.demotions as f64),
        ("tier.migrated_bytes", report.tiering.migrated_bytes as f64),
        (
            "tier.edram_settled_peak_share",
            drive::edram_budget_bytes(setup).map_or(0.0, |budget| {
                report.tiering.edram.settled_peak_bytes as f64 / budget as f64
            }),
        ),
    ];
    const SHARE_NAMES: [&str; 7] = [
        "ladder.kernels_share",
        "ladder.model_share",
        "ladder.cache_share",
        "ladder.fault_share",
        "ladder.scheduler_share",
        "ladder.parallel_share",
        "ladder.front_share",
    ];
    out.extend(SHARE_NAMES.into_iter().zip(shares));
    out
}

impl TraceResult {
    pub fn driver_line(&self) -> String {
        measure::driver_line(self.failed == 0, self.attempted, self.failed, &self.metrics)
    }

    pub fn print_table(&self) {
        println!(
            "workload {}  seed {}  traced requests {}  failed {}",
            self.workload.name(),
            self.seed,
            self.attempted,
            self.failed
        );
        measure::print_metrics(&self.metrics);
        println!(
            "layer ladder over {} forward passes (self time = rung - rung below):",
            self.ladder.passes
        );
        let shares = self.ladder.shares();
        for (i, name) in RUNGS.iter().enumerate() {
            println!(
                "  R{i} {name:<10} {:>10.3} ms   share {:>7.4}",
                self.ladder.rung_s[i] * 1e3,
                shares[i]
            );
        }
        println!(
            "  shares sum to {:.4}; two workers run R4's work in {:.3} ms",
            shares.iter().sum::<f64>(),
            self.ladder.parallel_w2_s * 1e3
        );
        println!("spans (self time excludes child spans):");
        for total in self.tracer.totals() {
            println!(
                "  {:<18} n={:<6} total {:>10.3} ms   self {:>10.3} ms",
                total.name,
                total.count,
                total.total_ns as f64 / 1e6,
                total.self_ns as f64 / 1e6
            );
        }
        for failure in &self.failures {
            println!("  FAILED {failure}");
        }
    }

    /// Writes `<target>/kbench/trace-<workload>.json`: metrics, ladder and
    /// every span.
    pub fn write_trace_file(&self) -> Result<PathBuf, String> {
        let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
        let dir = PathBuf::from(target).join("kbench");
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}.json", self.workload.name()));
        let shares = self.ladder.shares();
        let document = Json::obj([
            ("workload", Json::str(self.workload.name())),
            ("seed", Json::UInt(self.seed)),
            (
                "host_parallelism",
                Json::UInt(stats::host_parallelism() as u64),
            ),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
            (
                "ladder",
                Json::Arr(
                    RUNGS
                        .iter()
                        .enumerate()
                        .map(|(i, name)| {
                            Json::obj([
                                ("rung", Json::str(*name)),
                                ("seconds", Json::Num(self.ladder.rung_s[i])),
                                ("share", Json::Num(shares[i])),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("spans", self.tracer.to_json()),
        ]);
        std::fs::write(&path, document.compact())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
        Ok(path)
    }
}
