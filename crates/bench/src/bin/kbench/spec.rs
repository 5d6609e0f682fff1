//! The metric registry: every name, unit, direction and regression bound the
//! benchmark reports.  `kbench spec` prints it as `BENCHMARK.json`, and a
//! test keeps the committed file equal to it, so the two cannot drift.

use crate::json::Json;
use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    pub fn parse(name: &str) -> Option<Better> {
        match name {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse before a change counts as a regression; unused per layer.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    e2e(name, unit, Better::Higher, 0.0)
}

/// Seconds one run measures for.
pub const RUN_SECONDS: u64 = 15;

/// The benchmark's directory, relative to the repository root.
pub const PATH: &str = "crates/bench/src/bin/kbench";

/// End-to-end metrics: what a user of the serving stack sees.  Host
/// wall-clock unless prefixed `sim_` (the modelled Kelle+eDRAM accelerator)
/// or `slo_` (scheduler ticks).  Every workload reports every one.
///
/// Wall-clock bounds are as wide as the PR driver allows because the
/// reference host's speed wanders by 10-25 % over minutes (see the README);
/// a claim about a change rests on paired runs and `kbench compare`, not on
/// these gates.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("tokens_per_s", "1/s", Better::Higher, 0.25),
    e2e("ttft_ms_p50", "ms", Better::Lower, 0.25),
    e2e("tpot_ms_p50", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25),
    e2e("sim_latency_s", "s", Better::Lower, 0.05),
    e2e("sim_energy_j", "J", Better::Lower, 0.05),
    e2e("slo_goodput_share", "share", Better::Higher, 0.15),
];

/// Per-layer metrics, grouped by module.  The README's table says which
/// end-to-end metric each should move, and on which workload.
pub const PER_LAYER: &[MetricSpec] = &[
    // tensor: kernels at the surrogate's shapes.
    lower("tensor.dot_ns", "ns"),
    lower("tensor.matvec_qkv_ns", "ns"),
    lower("tensor.matvec_ffn_ns", "ns"),
    lower("tensor.matvec_lm_head_ns", "ns"),
    lower("tensor.softmax_ns", "ns"),
    lower("tensor.rms_norm_ns", "ns"),
    higher("tensor.matvec_gflops", "GFLOP/s"),
    higher("tensor.matvec_gbps", "GB/s"),
    // model: one token through the surrogate, and the fault lane.
    lower("model.decode_step_us", "us"),
    lower("model.prefill_token_us", "us"),
    lower("model.attention_us", "us"),
    lower("model.macs_per_token", "count"),
    lower("model.fault_corrupt_ns_per_word", "ns"),
    lower("model.fault_words_per_token", "count"),
    lower("model.fault_share", "share"),
    lower("model.segment_replay_us_per_token", "us"),
    // cache: every policy; only aerp runs in the workloads.
    lower("cache.full.insert_ns", "ns"),
    lower("cache.full.observe_ns", "ns"),
    lower("cache.full.read_ns_per_entry", "ns"),
    lower("cache.full.decode_step_us", "us"),
    lower("cache.streaming-llm.insert_ns", "ns"),
    lower("cache.streaming-llm.observe_ns", "ns"),
    lower("cache.streaming-llm.read_ns_per_entry", "ns"),
    lower("cache.streaming-llm.decode_step_us", "us"),
    lower("cache.h2o.insert_ns", "ns"),
    lower("cache.h2o.observe_ns", "ns"),
    lower("cache.h2o.read_ns_per_entry", "ns"),
    lower("cache.h2o.decode_step_us", "us"),
    lower("cache.quarot-kv4.insert_ns", "ns"),
    lower("cache.quarot-kv4.observe_ns", "ns"),
    lower("cache.quarot-kv4.read_ns_per_entry", "ns"),
    lower("cache.quarot-kv4.decode_step_us", "us"),
    lower("cache.aerp.insert_ns", "ns"),
    lower("cache.aerp.observe_ns", "ns"),
    lower("cache.aerp.read_ns_per_entry", "ns"),
    lower("cache.aerp.decode_step_us", "us"),
    lower("cache.aerp.evictions_per_token", "count"),
    lower("cache.aerp.recompute_share", "share"),
    // edram: capacity accounting.
    lower("edram.ledger_reserve_release_ns", "ns"),
    lower("edram.ledger_commit_growth_ns", "ns"),
    lower("edram.tier_migrate_ns", "ns"),
    // arch: the hardware model, once per finished request.
    lower("arch.simulate_us", "us"),
    // session: the serving unit, 2DRP faults included.
    lower("session.open_us", "us"),
    lower("session.prefill_token_us", "us"),
    lower("session.decode_one_us", "us"),
    // scheduler: ticks of the traced run.
    lower("scheduler.ticks", "count"),
    higher("scheduler.batch_size_mean", "count"),
    lower("scheduler.tick_ms_p50", "ms"),
    lower("scheduler.tick_ms_p95", "ms"),
    lower("scheduler.idle_tick_us", "us"),
    lower("scheduler.queue_wait_ticks_p50", "ticks"),
    lower("scheduler.queue_wait_ticks_p95", "ticks"),
    lower("scheduler.ttft_ticks_p95", "ticks"),
    lower("scheduler.overhead_share", "share"),
    // parallel: executor crossings and what the second worker buys.
    lower("parallel.crossings_per_tick", "count"),
    lower("parallel.sessions_migrated", "count"),
    lower("parallel.overhead_share_w1", "share"),
    higher("parallel.speedup_w2", "ratio"),
    // front: the submit/pump/poll surface.
    lower("front.submit_ms_p50", "ms"),
    lower("front.pump_ms_p50", "ms"),
    lower("front.poll_ns", "ns"),
    lower("front.overhead_share", "share"),
    // prefix: sharing.
    lower("prefix.lookup_us", "us"),
    lower("prefix.publish_us_per_token", "us"),
    higher("prefix.hit_token_share", "share"),
    higher("prefix.dedup_bytes", "bytes"),
    lower("prefix.hit_ttft_ratio", "ratio"),
    // tier: migrations of the traced run.
    lower("tier.promotions", "count"),
    lower("tier.demotions", "count"),
    lower("tier.migrated_bytes", "bytes"),
    lower("tier.edram_settled_peak_share", "share"),
    // workloads: trace generation, part of fleet_trace's set-up.
    lower("workloads.trace_generate_ms", "ms"),
    // trace: what the traced run itself costs.
    lower("trace.overhead_share", "share"),
    lower("trace.spans", "count"),
    // ladder: each rung's self time as a share of the top rung; sums to 1.
    lower("ladder.kernels_share", "share"),
    lower("ladder.model_share", "share"),
    lower("ladder.cache_share", "share"),
    lower("ladder.fault_share", "share"),
    lower("ladder.scheduler_share", "share"),
    lower("ladder.parallel_share", "share"),
    lower("ladder.front_share", "share"),
    // Tails, demoted from the end-to-end list.  decode_steady has too few
    // requests for a p90 and every workload must report every end-to-end
    // metric; and on the reference host the p95 of token gaps differs by a
    // fifth between two sets of runs of the same code.
    lower("ttft_ms_p90", "ms"),
    lower("tpot_ms_p95", "ms"),
];

pub fn per_layer(name: &str) -> &'static MetricSpec {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
}

/// `BENCHMARK.json`, to the PR driver's contract.
pub fn benchmark_json() -> Json {
    let manifest = format!("{PATH}/Cargo.toml");
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        &manifest,
        "--",
        "run",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str(PATH)])),
        ("run_seconds", Json::UInt(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.name())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Finds `BENCHMARK.json` in the current directory or the nearest ancestor
/// that has one, so `compare` and the tests work from the repository root,
/// from `crates/bench` and from this directory alike.
pub fn find_benchmark_json() -> Option<std::path::PathBuf> {
    let cwd = std::env::current_dir().ok()?;
    cwd.ancestors()
        .map(|dir| dir.join("BENCHMARK.json"))
        .find(|path| path.is_file())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn registry_meets_the_driver_contract() {
        let mut names = BTreeSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(metric.name), "{}", metric.name);
            assert!(valid_unit(metric.unit), "{}", metric.unit);
            assert!(names.insert(metric.name), "{} used twice", metric.name);
        }
        for workload in Workload::ALL {
            assert!(valid_name(workload.name()));
            assert!(names.insert(workload.name()));
            assert!(workload.why().len() <= 200 && !workload.why().contains('\n'));
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().pretty().len() <= 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_equals_the_registry() {
        let path = find_benchmark_json().expect("BENCHMARK.json is at the repository root");
        let text = std::fs::read_to_string(path).unwrap();
        assert_eq!(
            crate::json::parse(&text).unwrap(),
            benchmark_json(),
            "regenerate with `kbench spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn every_issue_group_is_present() {
        for (group, count) in [
            ("tensor.", 8),
            ("model.", 8),
            ("cache.", 22),
            ("edram.", 3),
            ("arch.", 1),
            ("session.", 3),
            ("scheduler.", 9),
            ("parallel.", 4),
            ("front.", 4),
            ("prefix.", 5),
            ("tier.", 4),
            ("workloads.", 1),
            ("trace.", 2),
            ("ladder.", 7),
        ] {
            let found = PER_LAYER
                .iter()
                .filter(|m| m.name.starts_with(group))
                .count();
            assert_eq!(found, count, "{group}");
        }
    }
}
