//! Regenerates every *table* of the paper from the reproduction models.
//!
//! Usage: `cargo run -p kelle-bench --bin tables [-- --table <id>]`
//! where `<id>` is one of `1`, `2`, `3`, `4`, `5`, `6`, `7`, `8`, `9`,
//! `area-power`, `bandwidth`, `chaos`, `contention`, `decode_perf`, `prefix`,
//! `serving`, `tiering`, `trace`, or `all` (default).

use kelle::accuracy::{evaluate_all_methods, evaluate_method, AccuracyConfig, Method};
use kelle::arch::InferenceWorkload;
use kelle::cache::CacheBudget;
use kelle::edram::{MemoryTechnology, RefreshIntervals, RefreshPolicy};
use kelle::experiment::{self, DEFAULT_N_PRIME};
use kelle::model::ModelKind;
use kelle::tensor::{QuantFormat, QuantizedMatrix};
use kelle::workloads::TaskKind;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let which = args
        .iter()
        .position(|a| a == "--table")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("all")
        .to_string();
    let all = which == "all";

    if all || which == "1" {
        table1();
    }
    if all || which == "2" {
        table2();
    }
    if all || which == "3" {
        table3();
    }
    if all || which == "4" {
        table4();
    }
    if all || which == "5" {
        table5();
    }
    if all || which == "6" {
        table6();
    }
    if all || which == "7" {
        table7();
    }
    if all || which == "8" {
        table8();
    }
    if all || which == "9" {
        table9();
    }
    if all || which == "area-power" {
        area_power();
    }
    if all || which == "bandwidth" {
        bandwidth();
    }
    if all || which == "contention" {
        contention();
    }
    if all || which == "decode_perf" {
        decode_perf();
    }
    if all || which == "prefix" {
        prefix();
    }
    if all || which == "serving" {
        serving();
    }
    if all || which == "tiering" {
        tiering();
    }
    if all || which == "chaos" {
        chaos();
    }
    if all || which == "trace" {
        trace();
    }
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

fn table1() {
    header("Table 1: SRAM vs eDRAM (65nm, 4MB)");
    println!(
        "{:>8} {:>10} {:>12} {:>14} {:>12} {:>14} {:>12}",
        "tech", "area mm2", "latency ns", "energy pJ/B", "leakage mW", "refresh mJ", "retention us"
    );
    for tech in [MemoryTechnology::Sram, MemoryTechnology::Edram] {
        println!(
            "{:>8} {:>10.1} {:>12.1} {:>14.1} {:>12.0} {:>14.2} {:>12}",
            format!("{tech:?}"),
            tech.area_mm2_4mb(),
            tech.access_latency_ns(),
            tech.access_energy_pj_per_byte(),
            tech.leakage_mw_4mb(),
            tech.refresh_energy_mj_4mb(),
            tech.retention_time_us()
                .map(|t| t.to_string())
                .unwrap_or_else(|| "-".to_string())
        );
    }
}

fn table2() {
    header("Table 2: accuracy performance of each method (fidelity-proxy scale)");
    let models = [
        ModelKind::Llama2_7b,
        ModelKind::Llama3_2_3b,
        ModelKind::Mistral7b,
    ];
    for model in models {
        println!("\n[{model}]");
        println!(
            "{:>6} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "task", "FP16", "SL", "H2O", "QR", "Kelle"
        );
        for task in [
            TaskKind::WikiText2,
            TaskKind::Pg19,
            TaskKind::ArcChallenge,
            TaskKind::ArcEasy,
            TaskKind::Piqa,
            TaskKind::Lambada,
            TaskKind::TriviaQa,
            TaskKind::Qasper,
        ] {
            let mut config = AccuracyConfig::for_task(task).with_model(model);
            config.prompts = 1;
            let results = evaluate_all_methods(&config);
            let score = |m: Method| {
                results
                    .iter()
                    .find(|r| r.method == m)
                    .map(|r| r.score)
                    .unwrap_or(f64::NAN)
            };
            println!(
                "{:>6} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
                task.label(),
                score(Method::Fp16),
                score(Method::StreamingLlm),
                score(Method::H2o),
                score(Method::QuaRot),
                score(Method::Kelle)
            );
        }
    }
}

fn table3() {
    header("Table 3: LLaMA2-7B accuracy over cache budgets N'");
    let tasks = [TaskKind::ArcChallenge, TaskKind::ArcEasy, TaskKind::Piqa];
    let (prompt_len, _) = TaskKind::ArcEasy.surrogate_lengths();
    let budgets = [
        prompt_len,
        prompt_len / 2,
        prompt_len / 3,
        prompt_len / 4,
        8,
    ];
    println!("{:>6} {:>14}", "task", "scores for shrinking N'");
    for task in tasks {
        let mut row = format!("{:>6}", task.label());
        for &budget in &budgets {
            let cfg = AccuracyConfig::for_task(task)
                .with_budget(
                    CacheBudget::new(budget.max(4))
                        .with_recent_window((budget / 2).max(2))
                        .with_sink_tokens(2),
                )
                .with_refresh_policy(RefreshPolicy::Conservative);
            let mut cfg = cfg;
            cfg.prompts = 1;
            let result = evaluate_method(&cfg, Method::Kelle);
            row.push_str(&format!(" {:>8.2}", result.score));
        }
        println!("{row}");
    }
}

fn table4() {
    header("Table 4: uniform refresh vs 2DRP at matched average intervals");
    println!("{:>10} {:>12} {:>12}", "setting", "uniform", "2DRP");
    for (index, uniform_us) in [540.0, 1050.0, 2062.0].into_iter().enumerate() {
        let task = TaskKind::ArcEasy;
        let mut uniform_cfg =
            AccuracyConfig::for_task(task).with_refresh_policy(RefreshPolicy::Uniform(uniform_us));
        uniform_cfg.prompts = 1;
        let mut twodrp_cfg = AccuracyConfig::for_task(task).with_refresh_policy(
            RefreshPolicy::TwoDimensional(RefreshIntervals::table4_setting(index)),
        );
        twodrp_cfg.prompts = 1;
        let uniform = evaluate_method(&uniform_cfg, Method::Kelle);
        let twodrp = evaluate_method(&twodrp_cfg, Method::Kelle);
        println!(
            "{:>9}us {:>12.2} {:>12.2}",
            uniform_us, uniform.score, twodrp.score
        );
    }
}

fn table5() {
    header("Table 5: qualitative metrics (summarization / truthfulness / bias proxies)");
    println!("{:>8} {:>10} {:>10}", "task", "FP16", "Kelle");
    for task in TaskKind::table5() {
        let mut config = AccuracyConfig::for_task(task);
        config.prompts = 1;
        let fp16 = evaluate_method(&config, Method::Fp16);
        let kelle = evaluate_method(&config, Method::Kelle);
        println!(
            "{:>8} {:>10.2} {:>10.2}",
            task.label(),
            fp16.score,
            kelle.score
        );
    }
}

fn table6() {
    header("Table 6: Kelle W8A16 vs W4A8 (quantization compatibility)");
    // Weight-quantization error is modelled directly at the tensor level: the
    // W4A8 setting quantizes weights to 4 bits and the KV cache to 8 bits.
    let config_w8 = {
        let mut c = AccuracyConfig::for_task(TaskKind::ArcEasy);
        c.prompts = 1;
        c
    };
    let w8 = evaluate_method(&config_w8, Method::Kelle);
    let w4 = evaluate_method(&config_w8, Method::QuaRot);
    println!("{:>10} {:>12} {:>12}", "task", "W8A16", "W4A8");
    println!("{:>10} {:>12.2} {:>12.2}", "A-e", w8.score, w4.score);
    // Also report the raw weight-matrix quantization error at both settings.
    let model = kelle::model::SurrogateModel::new(
        kelle::model::ModelConfig::for_kind(ModelKind::Llama2_7b),
        3,
    );
    let wq = &model.weights().layers[0].wq;
    let err8 = QuantizedMatrix::quantize(wq, QuantFormat::Int8)
        .unwrap()
        .reconstruction_error(wq);
    let err4 = QuantizedMatrix::quantize(wq, QuantFormat::Int4)
        .unwrap()
        .reconstruction_error(wq);
    println!("weight reconstruction error: INT8 {err8:.5}, INT4 {err4:.5}");
}

fn table7() {
    header("Table 7: energy efficiency over KV cache budgets (PG19)");
    let budgets = [2048usize, 3500, 5250, 7000, 8750];
    for model in [ModelKind::Llama3_2_3b, ModelKind::Llama2_13b] {
        let rows = experiment::table7(model, &budgets);
        let line: Vec<String> = rows
            .iter()
            .map(|(n, g)| format!("N'={n}: {g:.2}x"))
            .collect();
        println!("{model}: {}", line.join("  "));
    }
}

fn table8() {
    header("Table 8: energy efficiency across average refresh intervals (LLaMA3.2-3B)");
    for workload in [InferenceWorkload::triviaqa(), InferenceWorkload::pg19()] {
        let rows = experiment::table8(ModelKind::Llama3_2_3b, workload);
        let line: Vec<String> = rows
            .iter()
            .map(|(us, g)| format!("{us}us: {g:.2}x"))
            .collect();
        println!("{:>4}: {}", workload.name, line.join("  "));
    }
}

fn table9() {
    header("Table 9: energy efficiency across batch sizes (LLaMA2-7B, PG19)");
    for (batch, gains) in experiment::table9(ModelKind::Llama2_7b, &[16, 4, 1]) {
        let line: Vec<String> = gains.iter().map(|(n, g)| format!("{n} {g:.2}x")).collect();
        println!("batch {:>2}: {}", batch, line.join(", "));
    }
}

fn area_power() {
    header("Accelerator area and power reconstruction (§8)");
    let (area, power) = experiment::area_power_report();
    println!(
        "on-chip area : {:.2} mm^2 (RSA {:.2}, SFU {:.2}, memories {:.2}, logic {:.2}); DRAM die {:.0} mm^2",
        area.onchip_total_mm2(),
        area.rsa_mm2,
        area.sfu_mm2,
        area.memory_mm2,
        area.logic_mm2,
        area.dram_mm2
    );
    println!(
        "on-chip power: {:.2} W (RSA {:.2}, SFU {:.2}, memories {:.2}); DRAM {:.2} W",
        power.onchip_total_w(),
        power.rsa_w,
        power.sfu_w,
        power.memory_w,
        power.dram_w
    );
}

fn bandwidth() {
    header("§8.3.7: halved eDRAM bandwidth ablation");
    for workload in [InferenceWorkload::pg19(), InferenceWorkload::triviaqa()] {
        let (full, halved) = experiment::bandwidth_ablation(ModelKind::Llama2_7b, workload);
        println!(
            "{:>4}: full bandwidth {:.2}x, halved bandwidth {:.2}x (vs Original+SRAM, N'={})",
            workload.name, full, halved, DEFAULT_N_PRIME
        );
    }
}

fn contention() {
    header("Serving contention: shared eDRAM capacity vs queue delay and spill");
    let rows =
        experiment::serving_contention(ModelKind::Llama2_7b, 6, 16, 8, &[1.0, 0.75, 0.5, 0.25]);
    println!(
        "{:>9} {:>14} {:>12} {:>11} {:>14} {:>12} {:>10}",
        "capacity", "bytes", "mean queue", "max queue", "spill MB", "energy J", "tokens"
    );
    for row in rows {
        println!(
            "{:>8.0}% {:>14} {:>12.2} {:>11} {:>14.1} {:>12.1} {:>10}",
            row.capacity_scale * 100.0,
            row.capacity_bytes,
            row.mean_queue_ticks,
            row.max_queue_ticks,
            row.spill_bytes as f64 / (1024.0 * 1024.0),
            row.hardware_energy_j,
            row.tokens_generated
        );
    }
    println!("(token streams are identical at every capacity point; only cost and queueing move)");
}

fn decode_perf() {
    header("Decode throughput: arena hot path vs pre-arena materializing baseline");
    let report = kelle_bench::decode_perf::run(kelle_bench::decode_perf::DecodePerfConfig::quick());
    println!(
        "{:>14} {:>16} {:>16} {:>9}",
        "policy", "baseline tok/s", "optimized tok/s", "speedup"
    );
    for row in &report.rows {
        println!(
            "{:>14} {:>16.1} {:>16.1} {:>8.2}x",
            row.policy.name(),
            row.baseline_tokens_per_sec,
            row.optimized_tokens_per_sec,
            row.speedup
        );
    }
    println!(
        "geomean speedup: {:.2}x on the {} workload (streams verified identical)",
        report.geomean_speedup(),
        report.workload
    );
}

fn prefix() {
    header("Prefix sharing: shared-system-prompt fleet, with vs without sharing");
    let report = kelle_bench::prefix_perf::run(kelle_bench::prefix_perf::PrefixPerfConfig::quick());
    println!(
        "{:>8} {:>16} {:>16} {:>9} {:>14} {:>14} {:>12}",
        "sessions",
        "cold prefill tok",
        "shared pf tok",
        "speedup",
        "cold KV MB",
        "shared KV MB",
        "dedup MB"
    );
    for row in &report.rows {
        println!(
            "{:>8} {:>16} {:>16} {:>8.2}x {:>14.2} {:>14.2} {:>12.2}",
            row.sessions,
            row.baseline_prefill_tokens,
            row.shared_prefill_tokens,
            row.speedup,
            row.baseline_resident_kv_bytes as f64 / (1024.0 * 1024.0),
            row.shared_resident_kv_bytes as f64 / (1024.0 * 1024.0),
            row.deduplicated_bytes as f64 / (1024.0 * 1024.0),
        );
    }
    println!("(the shared prefix is computed once and ledger-charged once per fleet;");
    println!(" token streams are verified identical on every row)");
}

fn serving() {
    header("Threaded serving: decode throughput vs worker count, shared-prompt fleet");
    let report =
        kelle_bench::serving_perf::run(kelle_bench::serving_perf::ServingPerfConfig::quick());
    println!(
        "{:>12} {:>12} {:>12} {:>14} {:>9}",
        "workers", "decode tok", "decode s", "decode tok/s", "speedup"
    );
    for row in &report.rows {
        let workers = row
            .workers
            .map(|w| w.to_string())
            .unwrap_or_else(|| "sequential".to_string());
        let speedup = row
            .speedup_vs_one_worker
            .map(|s| format!("{s:.2}x"))
            .unwrap_or_else(|| "-".to_string());
        println!(
            "{:>12} {:>12} {:>12.4} {:>14.0} {:>9}",
            workers, row.decode_tokens, row.decode_seconds, row.decode_tokens_per_sec, speedup,
        );
    }
    println!("(token streams and fault statistics are bit-identical on every row;");
    println!(" speedup requires a multi-core host — workers only move wall-clock time)");
}

fn tiering() {
    header("Tiered KV memory: eDRAM -> DRAM -> NVMe under fleet pressure");
    let report =
        kelle_bench::tiering_perf::run(kelle_bench::tiering_perf::TieringPerfConfig::quick());
    let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    println!(
        "fleet KV demand {:.2} MiB; eDRAM budget {:.2} MiB",
        mib(report.total_kv_demand_bytes),
        mib(report.tiers[0].budget_bytes)
    );
    println!(
        "{:>6} {:>12} {:>12} {:>14} {:>12} {:>12}",
        "tier", "budget MiB", "peak MiB", "settled MiB", "in MiB", "out MiB"
    );
    for row in &report.tiers {
        let budget = if row.budget_bytes == u64::MAX {
            "unbounded".to_string()
        } else {
            format!("{:.2}", mib(row.budget_bytes))
        };
        println!(
            "{:>6} {:>12} {:>12.2} {:>14.2} {:>12.2} {:>12.2}",
            row.tier.name(),
            budget,
            mib(row.peak_bytes),
            mib(row.settled_peak_bytes),
            mib(row.in_bytes),
            mib(row.out_bytes),
        );
    }
    println!(
        "migrations: {} demotions, {} promotions, {:.2} MiB moved ({:.3} ms, {:.3} mJ modelled)",
        report.metrics.demotions,
        report.metrics.promotions,
        mib(report.metrics.migrated_bytes),
        report.metrics.migration_time_s * 1e3,
        report.metrics.migration_energy_j * 1e3,
    );
    println!("(token streams are bit-identical to the unbounded run; only migration cost moves)");
}

fn chaos() {
    header("Chaos-hardened serving: fault injection, checkpoint/replay recovery");
    kelle_bench::chaos_perf::silence_injected_panics();
    let report = kelle_bench::chaos_perf::run(kelle_bench::chaos_perf::ChaosPerfConfig::quick());
    println!(
        "{} workers; {}‰ panics, {}‰ migration faults, {}‰ ledger blips (seeded)",
        report.config.workers,
        report.config.scenario.worker_loss_per_mille,
        report.config.scenario.migration_fault_per_mille,
        report.config.scenario.ledger_blip_per_mille
    );
    println!(
        "{:>6} {:>10} {:>14} {:>14} {:>14}",
        "run", "seconds", "tokens/s", "p50 tok µs", "p99 tok µs"
    );
    for row in [&report.clean, &report.chaos] {
        println!(
            "{:>6} {:>10.4} {:>14.1} {:>14.3} {:>14.3}",
            row.label, row.seconds, row.tokens_per_s, row.p50_token_us, row.p99_token_us
        );
    }
    println!(
        "faults: {} panics, {} replayed steps, {} restores, {} ledger blips, \
         {} migration retries, {} lost",
        report.metrics.injected_panics,
        report.metrics.replayed_steps,
        report.metrics.restored_sessions,
        report.metrics.ledger_blips,
        report.migration_retries,
        report.metrics.lost_requests,
    );
    println!("(every surviving stream verified bit-identical to the clean run)");
}

fn trace() {
    header("Fleet trace replay: admission-policy shootout under SLO");
    let config = kelle_bench::trace_perf::TracePerfConfig::table();
    let report = kelle_bench::trace_perf::run(config);
    println!(
        "{} sessions -> {} requests, capacity {} tokens, SLO ttft<={} tpot<={:.1}",
        report.config.trace.sessions,
        report.requests,
        report.config.capacity_tokens,
        report.config.slo.ttft_ticks,
        report.config.slo.tpot_ticks,
    );
    println!(
        "{:>22} {:>8} {:>7} {:>9} {:>9} {:>9} {:>8} {:>10}",
        "policy", "workers", "ticks", "ttft p50", "ttft p95", "queue p95", "goodput", "tok/ktick"
    );
    for row in &report.rows {
        let slo = &row.report.slo;
        println!(
            "{:>22} {:>8} {:>7} {:>9.0} {:>9.0} {:>9.0} {:>7.1}% {:>10.1}",
            kelle_bench::trace_perf::policy_label(row.policy),
            row.workers,
            slo.ticks,
            slo.ttft.p50,
            slo.ttft.p95,
            slo.queue.p95,
            slo.goodput_fraction() * 100.0,
            slo.goodput_tokens_per_kilotick(),
        );
    }
    println!("(token streams are bit-identical on every row; per-policy SLO reports are");
    println!(" bit-identical across worker counts — latencies are scheduler ticks)");
}
