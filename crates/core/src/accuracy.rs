//! Functional-fidelity experiments (Tables 2–6, Fig. 8).
//!
//! Each experiment builds the surrogate model for the requested architecture,
//! generates deterministic task prompts, runs the full-cache / fault-free
//! reference, then replays the same prompts under a *method* — a KV-cache
//! policy plus an optional retention-fault model and KV quantization — and
//! reports the fidelity metrics mapped onto the paper's score scale (PPL-style
//! scores for WK2/PG19, accuracy-style scores for the zero-shot and QA tasks,
//! quality scores for Table 5).  See `DESIGN.md` §2 for why these proxies
//! preserve the orderings the paper's tables compare.

use kelle_edram::{RefreshPolicy, RetentionModel};
use kelle_model::fault::fault_injector_for_policy;
use kelle_model::fault::{BitFlipRates, NoFaults, ProbabilisticFaults};
use kelle_model::generation::{evaluate_against_reference, run_reference};
use kelle_model::{
    CacheBudget, CachePolicy, FidelityMetrics, GenerationConfig, ModelConfig, ModelKind,
    SurrogateModel,
};
use kelle_workloads::{TaskKind, TaskMetric, TokenStreamGenerator};

/// A KV-cache management method compared in Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Full KV cache in FP16 (the reference row).
    Fp16,
    /// StreamingLLM (sink + recent window).
    StreamingLlm,
    /// H2O heavy-hitter eviction.
    H2o,
    /// QuaRot-style 4-bit KV quantization with full retention.
    QuaRot,
    /// Kelle's AERP with the 2DRP retention-fault model.
    Kelle,
}

impl Method {
    /// All methods in Table 2 column order.
    pub fn all() -> [Method; 5] {
        [
            Method::Fp16,
            Method::StreamingLlm,
            Method::H2o,
            Method::QuaRot,
            Method::Kelle,
        ]
    }

    /// Display name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            Method::Fp16 => "FP16",
            Method::StreamingLlm => "SL",
            Method::H2o => "H2O",
            Method::QuaRot => "QR",
            Method::Kelle => "Kelle",
        }
    }

    /// The serving-side [`CachePolicy`] realising this method, so the
    /// accuracy experiments and the engine build their backends from the same
    /// registry.
    pub fn policy(self) -> CachePolicy {
        match self {
            Method::Fp16 => CachePolicy::Full,
            Method::StreamingLlm => CachePolicy::StreamingLlm,
            Method::H2o => CachePolicy::H2o,
            Method::QuaRot => CachePolicy::QuaRotInt4,
            Method::Kelle => CachePolicy::Aerp,
        }
    }

    /// The method realising a serving-side policy (inverse of
    /// [`Method::policy`]).
    pub fn from_policy(policy: CachePolicy) -> Method {
        match policy {
            CachePolicy::Full => Method::Fp16,
            CachePolicy::StreamingLlm => Method::StreamingLlm,
            CachePolicy::H2o => Method::H2o,
            CachePolicy::QuaRotInt4 => Method::QuaRot,
            CachePolicy::Aerp => Method::Kelle,
        }
    }
}

/// Configuration of one accuracy experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyConfig {
    /// Model architecture to emulate.
    pub model: ModelKind,
    /// Task to evaluate.
    pub task: TaskKind,
    /// Cache budget (scaled to the surrogate sequence lengths).
    pub budget: CacheBudget,
    /// Refresh policy used to derive retention faults (Kelle method only).
    pub(crate) refresh_policy: RefreshPolicy,
    /// Explicit bit-flip rates overriding the refresh policy (used by the
    /// Fig. 8 sweeps); `None` derives rates from `refresh_policy`.
    pub(crate) explicit_rates: Option<BitFlipRates>,
    /// Number of prompts averaged per result.
    pub prompts: usize,
    /// RNG seed.
    pub(crate) seed: u64,
}

impl AccuracyConfig {
    /// The default configuration for a task on LLaMA2-7B, mirroring §7.1:
    /// task-dependent budgets scaled to the surrogate lengths and the default
    /// 2DRP refresh setting.
    pub fn for_task(task: TaskKind) -> Self {
        let (prompt_len, _) = task.surrogate_lengths();
        // Scale the paper's budget so that budget/sequence-length ratios stay
        // comparable at surrogate scale: keep roughly half the prompt.
        let budget = CacheBudget::new((prompt_len / 2).max(8))
            .with_recent_window((prompt_len / 4).max(4))
            .with_sink_tokens(2);
        AccuracyConfig {
            model: ModelKind::Llama2_7b,
            task,
            budget,
            refresh_policy: RefreshPolicy::two_dimensional_default(),
            explicit_rates: None,
            prompts: 3,
            seed: 42,
        }
    }

    /// Overrides the evaluated model (builder style).
    pub fn with_model(mut self, model: ModelKind) -> Self {
        self.model = model;
        self
    }

    /// Overrides the cache budget (builder style).
    pub fn with_budget(mut self, budget: CacheBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Overrides the refresh policy (builder style).
    pub fn with_refresh_policy(mut self, policy: RefreshPolicy) -> Self {
        self.refresh_policy = policy;
        self
    }

    /// Uses explicit bit-flip rates instead of policy-derived ones.
    pub fn with_explicit_rates(mut self, rates: BitFlipRates) -> Self {
        self.explicit_rates = Some(rates);
        self
    }
}

/// Result of evaluating one method on one task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyResult {
    /// The evaluated method.
    pub method: Method,
    /// The task.
    pub(crate) task: TaskKind,
    /// Raw fidelity metrics against the reference run.
    pub fidelity: FidelityMetrics,
    /// The score mapped onto the paper's scale (PPL-like for perplexity tasks,
    /// percentage for accuracy/quality tasks).
    pub score: f64,
}

/// Runs one method on one task configuration.
pub fn evaluate_method(config: &AccuracyConfig, method: Method) -> AccuracyResult {
    let model_config = ModelConfig::for_kind(config.model);
    let heads = model_config.surrogate.heads;
    let model = SurrogateModel::new(model_config, config.seed);
    let generator = TokenStreamGenerator::new(model.dims().vocab, config.seed ^ 0x9e37);

    let mut aggregate = FidelityAggregate::default();

    for prompt_index in 0..config.prompts.max(1) {
        let prompt = generator.prompt(config.task, prompt_index);
        let gen_config = GenerationConfig::greedy(prompt.decode_len);
        let reference = run_reference(&model, &prompt.tokens, gen_config);

        // One factory for every policy: the same registry the serving engine
        // and sessions build their backends from.
        let mut cache = method.policy().build(config.budget, heads);

        let metrics = if method == Method::Kelle {
            let mut faults: ProbabilisticFaults = match config.explicit_rates {
                Some(rates) => ProbabilisticFaults::new(rates, config.seed ^ 0xfa17),
                None => fault_injector_for_policy(
                    &config.refresh_policy,
                    &RetentionModel::default(),
                    config.seed ^ 0xfa17,
                ),
            };
            evaluate_against_reference(
                &model,
                &prompt.tokens,
                gen_config,
                &reference,
                cache.as_mut(),
                &mut faults,
            )
            .0
        } else {
            let mut faults = NoFaults;
            evaluate_against_reference(
                &model,
                &prompt.tokens,
                gen_config,
                &reference,
                cache.as_mut(),
                &mut faults,
            )
            .0
        };
        aggregate.add(metrics);
    }

    let fidelity = aggregate.mean();
    AccuracyResult {
        method,
        task: config.task,
        fidelity,
        score: score_on_paper_scale(config.task, fidelity),
    }
}

/// Runs all Table-2 methods for a task.
pub fn evaluate_all_methods(config: &AccuracyConfig) -> Vec<AccuracyResult> {
    Method::all()
        .into_iter()
        .map(|m| evaluate_method(config, m))
        .collect()
}

/// Maps fidelity metrics onto the paper's reporting scale for a task.
pub(crate) fn score_on_paper_scale(task: TaskKind, fidelity: FidelityMetrics) -> f64 {
    let reference = task.llama2_7b_fp16_reference();
    match task.metric() {
        // Perplexity tasks: the reference PPL is inflated by the distributional
        // drift (a perfectly faithful run reports the reference PPL itself).
        TaskMetric::Perplexity => reference + fidelity.mean_kl.min(50.0) * reference,
        TaskMetric::Accuracy => fidelity.accuracy_proxy(reference, task.chance_score()),
        TaskMetric::Quality => fidelity.quality_proxy(reference),
    }
}

#[derive(Debug, Default)]
struct FidelityAggregate {
    ppl: f64,
    kl: f64,
    agreement: f64,
    steps: usize,
    runs: usize,
}

impl FidelityAggregate {
    fn add(&mut self, metrics: FidelityMetrics) {
        self.ppl += metrics.ppl_proxy;
        self.kl += metrics.mean_kl;
        self.agreement += metrics.top1_agreement;
        self.steps += metrics.steps;
        self.runs += 1;
    }

    fn mean(&self) -> FidelityMetrics {
        let n = self.runs.max(1) as f64;
        FidelityMetrics {
            ppl_proxy: self.ppl / n,
            mean_kl: self.kl / n,
            top1_agreement: self.agreement / n,
            steps: self.steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(task: TaskKind) -> AccuracyConfig {
        let mut config = AccuracyConfig::for_task(task);
        config.prompts = 1;
        config
    }

    #[test]
    fn fp16_reference_is_faithful() {
        let config = quick_config(TaskKind::Piqa);
        let result = evaluate_method(&config, Method::Fp16);
        assert_eq!(result.fidelity.top1_agreement, 1.0);
        assert!(result.fidelity.mean_kl < 1e-6);
        // Accuracy proxy equals the published reference when agreement is 1.
        assert!((result.score - TaskKind::Piqa.llama2_7b_fp16_reference()).abs() < 1e-6);
    }

    #[test]
    fn streaming_llm_degrades_more_than_kelle() {
        let config = quick_config(TaskKind::ArcEasy);
        let sl = evaluate_method(&config, Method::StreamingLlm);
        let kelle = evaluate_method(&config, Method::Kelle);
        assert!(
            kelle.fidelity.top1_agreement >= sl.fidelity.top1_agreement,
            "kelle {} vs streaming {}",
            kelle.fidelity.top1_agreement,
            sl.fidelity.top1_agreement
        );
        assert!(kelle.score >= sl.score);
    }

    #[test]
    fn kelle_stays_in_the_reference_band_and_tracks_h2o() {
        let config = quick_config(TaskKind::Piqa);
        let kelle = evaluate_method(&config, Method::Kelle);
        let h2o = evaluate_method(&config, Method::H2o);
        let reference = TaskKind::Piqa.llama2_7b_fp16_reference();
        // Table 2 shows Kelle within a couple of points of FP16 on the real
        // models.  The surrogate's decision margins are far narrower, so the
        // absolute proxy drop is larger; what must hold is that Kelle stays
        // inside the [chance, reference] band and tracks the closest prior
        // policy (H2O).
        assert!(
            kelle.score >= TaskKind::Piqa.chance_score() - 1e-9,
            "score {}",
            kelle.score
        );
        assert!(kelle.score <= reference * 1.001, "score {}", kelle.score);
        assert!(
            kelle.score >= h2o.score * 0.85,
            "kelle {} vs h2o {}",
            kelle.score,
            h2o.score
        );
    }

    #[test]
    fn perplexity_tasks_report_ppl_scale() {
        let config = quick_config(TaskKind::WikiText2);
        let fp16 = evaluate_method(&config, Method::Fp16);
        assert!((fp16.score - 5.47).abs() < 0.2);
        let kelle = evaluate_method(&config, Method::Kelle);
        assert!(kelle.score >= fp16.score);
    }

    #[test]
    fn method_registry_round_trips() {
        for (method, policy) in Method::all().into_iter().zip(CachePolicy::all()) {
            assert_eq!(method.policy(), policy, "{method:?}");
            assert_eq!(Method::from_policy(policy), method, "{policy:?}");
        }
    }

    #[test]
    fn all_methods_run() {
        let config = quick_config(TaskKind::Lambada);
        let results = evaluate_all_methods(&config);
        assert_eq!(results.len(), 5);
        assert!(results.iter().all(|r| r.score.is_finite()));
    }
}
