//! Hardware experiment catalogue (Figs. 3, 13–16, Tables 7–9).
//!
//! These helpers wrap `kelle-arch` platform simulations into the exact sweeps
//! the paper's evaluation section reports, returning plain data rows that the
//! benchmark harness prints and the integration tests assert on.

use crate::engine::KelleEngine;
use crate::scheduler::SchedulerConfig;
use crate::session::ServeRequest;
use kelle_arch::{
    AreaBreakdown, Comparator, ComparatorKind, InferenceWorkload, Platform, PlatformKind,
    PlatformReport, PowerBreakdown, RooflineModel, RooflinePoint, SystolicEvictor,
};
use kelle_edram::{MemorySpec, MemoryTechnology, RefreshIntervals, RefreshPolicy};
use kelle_model::{ModelConfig, ModelKind};

/// Default KV-cache budget used by the hardware evaluation (PG19 setting).
pub const DEFAULT_N_PRIME: usize = 2048;

/// One (platform, workload) result row of Fig. 13 / Fig. 14.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEndRow {
    /// Platform or comparator name.
    pub platform: String,
    /// Workload label.
    pub workload: &'static str,
    /// Model evaluated.
    pub(crate) model: ModelKind,
    /// Speedup relative to the row's baseline platform.
    pub speedup: f64,
    /// Energy-efficiency gain relative to the baseline platform.
    pub energy_efficiency: f64,
    /// Full simulation report.
    pub report: PlatformReport,
}

/// A set of end-to-end rows sharing one baseline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EndToEndSummary {
    /// All rows, grouped by workload then platform.
    pub rows: Vec<EndToEndRow>,
}

impl EndToEndSummary {
    /// Geometric-mean speedup of a platform across workloads.
    pub fn mean_speedup(&self, platform: &str) -> f64 {
        geo_mean(
            self.rows
                .iter()
                .filter(|r| r.platform == platform)
                .map(|r| r.speedup),
        )
    }

    /// Geometric-mean energy efficiency of a platform across workloads.
    pub fn mean_energy_efficiency(&self, platform: &str) -> f64 {
        geo_mean(
            self.rows
                .iter()
                .filter(|r| r.platform == platform)
                .map(|r| r.energy_efficiency),
        )
    }
}

fn geo_mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut count = 0usize;
    for v in values {
        if v > 0.0 {
            log_sum += v.ln();
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        (log_sum / count as f64).exp()
    }
}

/// Runs the Fig. 13 comparison: all five platforms on the evaluation workloads
/// for one model, with `Original+SRAM` as the baseline.
pub fn figure13(model: ModelKind, n_prime: usize) -> EndToEndSummary {
    let model_config = ModelConfig::for_kind(model);
    let mut summary = EndToEndSummary::default();
    for workload in InferenceWorkload::evaluation_suite() {
        let baseline =
            Platform::preset(PlatformKind::OriginalSram).simulate(&model_config, &workload, None);
        for kind in PlatformKind::all() {
            let platform = Platform::preset(kind);
            let n = match kind {
                PlatformKind::OriginalSram | PlatformKind::OriginalEdram => None,
                _ => Some(n_prime),
            };
            let report = platform.simulate(&model_config, &workload, n);
            summary.rows.push(EndToEndRow {
                platform: kind.name().to_string(),
                workload: workload.name,
                model,
                speedup: report.speedup_vs(&baseline),
                energy_efficiency: report.energy_efficiency_vs(&baseline),
                report,
            });
        }
    }
    summary
}

/// Runs the Fig. 14 comparison: Kelle+eDRAM against the external accelerators,
/// with the Jetson Orin as the baseline.
pub fn figure14(model: ModelKind, n_prime: usize) -> EndToEndSummary {
    let model_config = ModelConfig::for_kind(model);
    let mut summary = EndToEndSummary::default();
    for workload in InferenceWorkload::evaluation_suite() {
        let baseline =
            Comparator::preset(ComparatorKind::JetsonOrin).simulate(&model_config, &workload);
        for kind in ComparatorKind::all() {
            let report = Comparator::preset(kind).simulate(&model_config, &workload);
            summary.rows.push(EndToEndRow {
                platform: kind.name().to_string(),
                workload: workload.name,
                model,
                speedup: report.speedup_vs(&baseline),
                energy_efficiency: report.energy_efficiency_vs(&baseline),
                report,
            });
        }
        let kelle = Platform::preset(PlatformKind::KelleEdram).simulate(
            &model_config,
            &workload,
            Some(n_prime),
        );
        summary.rows.push(EndToEndRow {
            platform: "Kelle".to_string(),
            workload: workload.name,
            model,
            speedup: kelle.speedup_vs(&baseline),
            energy_efficiency: kelle.energy_efficiency_vs(&baseline),
            report: kelle,
        });
    }
    summary
}

/// Fig. 3a: normalized decode latency of SRAM systems with 4 MB vs 8 MB of
/// on-chip SRAM across decode lengths.  Returns `(decode_len, latency_4mb,
/// latency_8mb)` tuples.
pub fn figure3a(model: ModelKind) -> Vec<(usize, f64, f64)> {
    let model_config = ModelConfig::for_kind(model);
    let mut rows = Vec::new();
    for decode_len in [1024usize, 2048, 4096, 8192] {
        let workload = InferenceWorkload::new("fig3a", 512, decode_len, 16);
        let small = Platform::preset(PlatformKind::OriginalSram);
        let mut large = Platform::preset(PlatformKind::OriginalSram);
        large.memory.kv_memory =
            MemorySpec::new(MemoryTechnology::Sram, 5 * 1024 * 1024 + 786_432, 128.0);
        let small_report = small.simulate(&model_config, &workload, None);
        let large_report = large.simulate(&model_config, &workload, None);
        rows.push((
            decode_len,
            small_report.total_latency_s(),
            large_report.total_latency_s(),
        ));
    }
    rows
}

/// Fig. 3b: on-chip area of the 8 MB-eDRAM system vs the 8 MB-SRAM system.
pub fn figure3b() -> (AreaBreakdown, AreaBreakdown) {
    let kelle = Platform::preset(PlatformKind::KelleEdram);
    let mut edram_mem = kelle.memory.clone();
    edram_mem.kv_memory = MemorySpec::new(MemoryTechnology::Edram, 8 * 1024 * 1024, 256.0);
    let mut sram_mem = Platform::preset(PlatformKind::OriginalSram).memory.clone();
    sram_mem.kv_memory = MemorySpec::new(MemoryTechnology::Sram, 8 * 1024 * 1024, 128.0);
    (
        AreaBreakdown::for_components(&kelle.compute, &edram_mem, &SystolicEvictor::absent()),
        AreaBreakdown::for_components(&kelle.compute, &sram_mem, &SystolicEvictor::absent()),
    )
}

/// Fig. 3c: decode-phase energy breakdown of the unoptimised eDRAM system
/// (conservative 45 µs refresh) across decode lengths.  Returns
/// `(decode_len, refresh_share, dram_share)`.
pub fn figure3c(model: ModelKind) -> Vec<(usize, f64, f64)> {
    let model_config = ModelConfig::for_kind(model);
    let mut rows = Vec::new();
    for decode_len in [1024usize, 2048, 4096, 8192] {
        let workload = InferenceWorkload::new("fig3c", 512, decode_len, 16);
        let report =
            Platform::preset(PlatformKind::OriginalEdram).simulate(&model_config, &workload, None);
        let energy = report.total_energy();
        rows.push((decode_len, energy.refresh_share(), energy.dram_share()));
    }
    rows
}

/// §8 area/power reconstruction of the Kelle accelerator.
pub fn area_power_report() -> (AreaBreakdown, PowerBreakdown) {
    let kelle = Platform::preset(PlatformKind::KelleEdram);
    (
        AreaBreakdown::for_components(&kelle.compute, &kelle.memory, &kelle.evictor),
        PowerBreakdown::for_components(&kelle.compute, &kelle.sfu, &kelle.memory),
    )
}

/// Table 7: Kelle energy-efficiency gain over Original+SRAM as a function of
/// the KV budget `N'` on the PG19 workload.
pub fn table7(model: ModelKind, budgets: &[usize]) -> Vec<(usize, f64)> {
    let model_config = ModelConfig::for_kind(model);
    let workload = InferenceWorkload::pg19();
    let baseline =
        Platform::preset(PlatformKind::OriginalSram).simulate(&model_config, &workload, None);
    budgets
        .iter()
        .map(|&n| {
            let report = Platform::preset(PlatformKind::KelleEdram).simulate(
                &model_config,
                &workload,
                Some(n),
            );
            (n, report.energy_efficiency_vs(&baseline))
        })
        .collect()
}

/// Table 8: Kelle energy efficiency across average refresh intervals
/// (retention-time sensitivity).  Returns `(interval_scale_label, gain)` rows.
pub fn table8(model: ModelKind, workload: InferenceWorkload) -> Vec<(u32, f64)> {
    let model_config = ModelConfig::for_kind(model);
    let baseline =
        Platform::preset(PlatformKind::OriginalSram).simulate(&model_config, &workload, None);
    [1050u32, 525, 131]
        .into_iter()
        .map(|avg_us| {
            let scale = f64::from(avg_us) / 1050.0;
            let mut platform = Platform::preset(PlatformKind::KelleEdram);
            platform.refresh_policy =
                RefreshPolicy::TwoDimensional(RefreshIntervals::paper_default().scaled(scale));
            let report = platform.simulate(&model_config, &workload, Some(DEFAULT_N_PRIME));
            (avg_us, report.energy_efficiency_vs(&baseline))
        })
        .collect()
}

/// Table 9: energy-efficiency gains across batch sizes on PG19.
pub fn table9(model: ModelKind, batches: &[usize]) -> Vec<(usize, Vec<(String, f64)>)> {
    let model_config = ModelConfig::for_kind(model);
    batches
        .iter()
        .map(|&batch| {
            let workload = InferenceWorkload::pg19().with_batch(batch);
            let baseline = Platform::preset(PlatformKind::OriginalSram).simulate(
                &model_config,
                &workload,
                None,
            );
            let gains = [
                PlatformKind::AepSram,
                PlatformKind::AerpSram,
                PlatformKind::KelleEdram,
            ]
            .into_iter()
            .map(|kind| {
                let report = Platform::preset(kind).simulate(
                    &model_config,
                    &workload,
                    Some(DEFAULT_N_PRIME),
                );
                (
                    kind.name().to_string(),
                    report.energy_efficiency_vs(&baseline),
                )
            })
            .collect();
            (batch, gains)
        })
        .collect()
}

/// Fig. 15b: refresh-strategy ablation (Org / Uniform / 2DRP / 2DRP+scheduler).
/// Returns `(label, energy_efficiency_vs_org)`.
pub fn figure15b(model: ModelKind) -> Vec<(&'static str, f64)> {
    let model_config = ModelConfig::for_kind(model);
    let workload = InferenceWorkload::pg19();
    let mut org = Platform::preset(PlatformKind::KelleEdram);
    org.refresh_policy = RefreshPolicy::Conservative;
    org.scheduler = kelle_arch::SchedulerKind::Baseline;
    let org_report = org.simulate(&model_config, &workload, Some(DEFAULT_N_PRIME));

    let mut uniform = org.clone();
    uniform.refresh_policy = RefreshPolicy::Uniform(360.0);
    let uniform_report = uniform.simulate(&model_config, &workload, Some(DEFAULT_N_PRIME));

    let mut twod = org.clone();
    twod.refresh_policy = RefreshPolicy::two_dimensional_default();
    let twod_report = twod.simulate(&model_config, &workload, Some(DEFAULT_N_PRIME));

    let full = Platform::preset(PlatformKind::KelleEdram).simulate(
        &model_config,
        &workload,
        Some(DEFAULT_N_PRIME),
    );

    vec![
        ("Org", 1.0),
        (
            "Uniform",
            org_report.total_energy_j() / uniform_report.total_energy_j(),
        ),
        (
            "2DRP",
            org_report.total_energy_j() / twod_report.total_energy_j(),
        ),
        (
            "2DRP+Scheduler",
            org_report.total_energy_j() / full.total_energy_j(),
        ),
    ]
}

/// Fig. 15a: energy impact of recomputation (on vs off) for a model.
/// Returns `(with_recompute_total_j, without_recompute_total_j)`.
pub fn figure15a(model: ModelKind) -> (f64, f64) {
    let model_config = ModelConfig::for_kind(model);
    let workload = InferenceWorkload::pg19();
    let with = Platform::preset(PlatformKind::KelleEdram).simulate(
        &model_config,
        &workload,
        Some(DEFAULT_N_PRIME),
    );
    let mut without_platform = Platform::preset(PlatformKind::KelleEdram);
    without_platform.cache_policy = kelle_arch::CachePolicyKind::Eviction;
    let without = without_platform.simulate(&model_config, &workload, Some(DEFAULT_N_PRIME));
    (with.total_energy_j(), without.total_energy_j())
}

/// Fig. 16a: roofline points for no / moderate / excessive recomputation.
pub fn figure16a(model: ModelKind) -> Vec<(&'static str, RooflinePoint)> {
    let model_config = ModelConfig::for_kind(model);
    let platform = Platform::preset(PlatformKind::KelleEdram);
    let roofline = RooflineModel::new(&platform.compute, &platform.memory.dram);
    let seq = 4608usize;
    let macs = model_config.decode_macs(DEFAULT_N_PRIME) * 16;
    let kv_bytes = (model_config.kv_bytes_total(DEFAULT_N_PRIME, 16) as u64) * 16;
    let weight_bytes = model_config.decoder_weight_params();
    let dram_bytes = kv_bytes + weight_bytes;
    let _ = seq;
    vec![
        ("No Recomp", roofline.evaluate(macs, dram_bytes)),
        (
            "Recomp",
            roofline.evaluate_recompute(macs, dram_bytes, 0.2, 48.0),
        ),
        (
            "Over Recomp",
            roofline.evaluate_recompute(macs, dram_bytes, 0.9, 48.0),
        ),
    ]
}

/// Fig. 16b: prefill/decode energy shares across input–output length settings.
/// Returns `(label, prefill_share, decode_dram_share)`.
pub fn figure16b(model: ModelKind) -> Vec<(String, f64, f64)> {
    let model_config = ModelConfig::for_kind(model);
    let mut rows = Vec::new();
    for input in [2048usize, 4096, 8192, 16_384] {
        for output in [128usize, 512, 2048] {
            let workload = InferenceWorkload::long_input(input, output);
            let report = Platform::preset(PlatformKind::KelleEdram).simulate(
                &model_config,
                &workload,
                Some(DEFAULT_N_PRIME),
            );
            let total = report.total_energy_j();
            let prefill_share = report.prefill.energy.total_j() / total;
            let decode_dram_share = report.decode.energy.dram_j / total;
            rows.push((
                format!("{}K-{}", input / 1024, output),
                prefill_share,
                decode_dram_share,
            ));
        }
    }
    rows
}

/// Summary of a continuous-batching serving run (the session-oriented API's
/// system-level experiment: many concurrent requests interleaved round-robin
/// under one engine).
#[derive(Debug, Clone, PartialEq)]
pub struct ServingSummary {
    /// Concurrent requests served.
    pub sessions: usize,
    /// Total tokens generated across all requests.
    pub tokens_generated: u64,
    /// Total modelled hardware energy in joules.
    pub hardware_energy_j: f64,
    /// Mean per-request modelled latency in seconds.
    pub mean_request_latency_s: f64,
}

/// Serves `sessions` deterministic synthetic requests through the
/// continuous-batching scheduler on the Kelle platform and summarises the
/// aggregate serving cost.
pub fn serving_batch(
    model: ModelKind,
    sessions: usize,
    prompt_len: usize,
    decode_len: usize,
) -> ServingSummary {
    assert!(sessions > 0, "need at least one session");
    let engine = KelleEngine::builder().model(model).build();
    let vocab = engine.model().dims().vocab;
    let requests: Vec<ServeRequest> = (0..sessions)
        .map(|i| {
            let prompt: Vec<usize> = (0..prompt_len.max(1))
                .map(|p| (i * 131 + p * 7 + 3) % vocab)
                .collect();
            ServeRequest::builder(prompt)
                .decode_len(decode_len.max(1))
                .label("batch-serving")
                .build()
        })
        .collect();
    let batch = engine
        .serve(requests, crate::engine::ServeOptions::new())
        .expect("no chaos configured, no worker can be lost");
    let mean_request_latency_s = batch
        .outcomes
        .iter()
        .map(|o| o.hardware.total_latency_s())
        .sum::<f64>()
        / sessions as f64;
    ServingSummary {
        sessions,
        tokens_generated: batch.stats.tokens_generated,
        hardware_energy_j: batch.stats.hardware_energy_j,
        mean_request_latency_s,
    }
}

/// One capacity point of the serving-contention sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionRow {
    /// Arbitrated capacity as a fraction of the batch's total final KV
    /// footprint (1.0 = everything fits at once).
    pub capacity_scale: f64,
    /// Arbitrated capacity in full-scale bytes.
    pub capacity_bytes: u64,
    /// Mean scheduler ticks requests spent in the waiting queue.
    pub mean_queue_ticks: f64,
    /// Longest any request waited.
    pub max_queue_ticks: u64,
    /// KV bytes charged at DRAM cost because they exceeded their request's
    /// eDRAM share.
    pub spill_bytes: u64,
    /// Ledger high-water mark across the batch.
    pub(crate) peak_residency_bytes: u64,
    /// Total modelled hardware energy in joules.
    pub hardware_energy_j: f64,
    /// Total modelled DRAM energy in joules (grows as residency shrinks).
    pub(crate) dram_energy_j: f64,
    /// Total tokens generated (identical at every capacity point — the
    /// equivalence guarantee).
    pub tokens_generated: u64,
}

/// Sweeps shared eDRAM capacity for a fixed request mix: `sessions`
/// deterministic synthetic requests contend for `scale x` the batch's total
/// final KV footprint, for each `scale` in `capacity_scales`.  Reports queue
/// delay, spill bytes and energy per capacity point.  Token streams are
/// identical at every point (asserted by the integration tests); only cost
/// and queueing move.
pub fn serving_contention(
    model: ModelKind,
    sessions: usize,
    prompt_len: usize,
    decode_len: usize,
    capacity_scales: &[f64],
) -> Vec<ContentionRow> {
    assert!(sessions > 0, "need at least one session");
    let engine = KelleEngine::builder().model(model).build();
    let vocab = engine.model().dims().vocab;
    let requests: Vec<ServeRequest> = (0..sessions)
        .map(|i| {
            let prompt: Vec<usize> = (0..prompt_len.max(1))
                .map(|p| (i * 131 + p * 7 + 3) % vocab)
                .collect();
            ServeRequest::builder(prompt)
                .decode_len(decode_len.max(1))
                .label("contention")
                .build()
        })
        .collect();
    let total_footprint: u64 = requests
        .iter()
        .map(|r| engine.kv_footprint_bytes(r.prompt().len() + r.decode_len()))
        .sum();
    capacity_scales
        .iter()
        .map(|&scale| {
            assert!(scale > 0.0, "capacity scale must be positive");
            let capacity_bytes = ((total_footprint as f64 * scale) as u64).max(1);
            let config = SchedulerConfig::default().with_kv_capacity_bytes(capacity_bytes);
            let batch = engine
                .serve(
                    requests.clone(),
                    crate::engine::ServeOptions::new().with_scheduler(config),
                )
                .expect("no chaos configured, no worker can be lost");
            let dram_energy_j = batch
                .outcomes
                .iter()
                .map(|o| o.hardware.total_energy().dram_j)
                .sum();
            ContentionRow {
                capacity_scale: scale,
                capacity_bytes,
                mean_queue_ticks: batch.contention.mean_queue_ticks(),
                max_queue_ticks: batch.contention.max_queue_ticks,
                spill_bytes: batch.contention.spill_bytes,
                peak_residency_bytes: batch.contention.peak_residency_bytes,
                hardware_energy_j: batch.stats.hardware_energy_j,
                dram_energy_j,
                tokens_generated: batch.stats.tokens_generated,
            }
        })
        .collect()
}

/// §8.3.7: halved eDRAM bandwidth ablation.  Returns `(full_bw_gain,
/// halved_bw_gain)` energy-efficiency gains over Original+SRAM.
pub fn bandwidth_ablation(model: ModelKind, workload: InferenceWorkload) -> (f64, f64) {
    let model_config = ModelConfig::for_kind(model);
    let baseline =
        Platform::preset(PlatformKind::OriginalSram).simulate(&model_config, &workload, None);
    let full = Platform::preset(PlatformKind::KelleEdram).simulate(
        &model_config,
        &workload,
        Some(DEFAULT_N_PRIME),
    );
    let mut halved_platform = Platform::preset(PlatformKind::KelleEdram);
    halved_platform.memory = kelle_arch::MemorySubsystem::kelle_halved_bandwidth();
    let halved = halved_platform.simulate(&model_config, &workload, Some(DEFAULT_N_PRIME));
    (
        full.energy_efficiency_vs(&baseline),
        halved.energy_efficiency_vs(&baseline),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure13_reproduces_ordering_and_factors() {
        let summary = figure13(ModelKind::Llama2_7b, DEFAULT_N_PRIME);
        assert_eq!(summary.rows.len(), 20);
        let kelle_speedup = summary.mean_speedup("Kelle+eDRAM");
        let kelle_eff = summary.mean_energy_efficiency("Kelle+eDRAM");
        // Paper: 3.94x / 4.46x on average; the analytical reproduction should
        // land in the same regime (clearly above 2x) with the right ordering.
        assert!(kelle_speedup > 2.0, "speedup {kelle_speedup}");
        assert!(kelle_eff > 1.8, "energy efficiency {kelle_eff}");
        assert!(kelle_speedup > summary.mean_speedup("AERP+SRAM"));
        assert!(summary.mean_speedup("AERP+SRAM") >= summary.mean_speedup("AEP+SRAM"));
        assert!(summary.mean_energy_efficiency("Original+eDRAM") < 1.0);
    }

    #[test]
    fn figure3a_larger_sram_is_faster() {
        let rows = figure3a(ModelKind::Llama2_7b);
        assert_eq!(rows.len(), 4);
        for (_, small, large) in rows {
            assert!(large <= small);
        }
    }

    #[test]
    fn figure3c_refresh_share_is_substantial() {
        let rows = figure3c(ModelKind::Llama2_7b);
        assert!(rows.iter().all(|(_, refresh, _)| *refresh > 0.2));
    }

    #[test]
    fn table7_gain_decreases_with_budget() {
        let rows = table7(ModelKind::Llama2_13b, &[2048, 3500, 5250, 7000, 8750]);
        assert_eq!(rows.len(), 5);
        for pair in rows.windows(2) {
            assert!(pair[0].1 >= pair[1].1, "{pair:?}");
        }
        assert!(rows.last().unwrap().1 > 1.0);
    }

    #[test]
    fn figure15b_each_optimisation_helps() {
        let rows = figure15b(ModelKind::Llama2_7b);
        assert_eq!(rows.len(), 4);
        assert!(rows[1].1 >= rows[0].1);
        assert!(rows[2].1 >= rows[1].1 * 0.99);
        assert!(rows[3].1 >= rows[2].1 * 0.99);
    }

    #[test]
    fn figure15a_recompute_saves_energy() {
        let (with, without) = figure15a(ModelKind::Llama3_2_3b);
        assert!(with < without);
    }

    #[test]
    fn figure16a_regimes() {
        let points = figure16a(ModelKind::Llama2_7b);
        assert!(!points[0].1.compute_bound);
        assert!(points[2].1.compute_bound);
        assert!(points[1].1.performance_macs_per_s >= points[0].1.performance_macs_per_s);
    }

    #[test]
    fn serving_batch_summary_accounts_every_session() {
        let summary = serving_batch(ModelKind::Llama2_7b, 3, 6, 4);
        assert_eq!(summary.sessions, 3);
        assert_eq!(summary.tokens_generated, 12);
        assert!(summary.hardware_energy_j > 0.0);
        assert!(summary.mean_request_latency_s > 0.0);
    }

    #[test]
    fn serving_contention_sweep_trades_queueing_for_capacity() {
        let rows = serving_contention(ModelKind::Llama2_7b, 3, 12, 6, &[1.0, 0.5]);
        assert_eq!(rows.len(), 2);
        let ample = &rows[0];
        let scarce = &rows[1];
        // Everything fits at scale 1.0: no queueing, no spill.
        assert_eq!(ample.max_queue_ticks, 0);
        assert_eq!(ample.spill_bytes, 0);
        // At half capacity the third request queues behind the first two,
        // whose decode growth oversubscribes the shared budget and spills...
        assert!(scarce.max_queue_ticks > 0);
        assert!(scarce.spill_bytes > 0);
        assert!(scarce.dram_energy_j > ample.dram_energy_j);
        // ...but the functional output is unchanged.
        assert_eq!(ample.tokens_generated, scarce.tokens_generated);
        assert_eq!(ample.tokens_generated, 18);
    }

    #[test]
    fn bandwidth_ablation_keeps_most_of_the_gain() {
        let (full, halved) =
            bandwidth_ablation(ModelKind::Llama2_7b, InferenceWorkload::triviaqa());
        assert!(halved > 1.0);
        assert!(halved <= full * 1.001);
    }
}
