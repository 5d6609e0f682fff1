//! Integration tests for the accuracy experiments: the orderings the paper's
//! Tables 2–4 and Fig. 8 rely on must hold for the surrogate reproduction.

use kelle::accuracy::{evaluate_method, AccuracyConfig, Method};
use kelle::cache::{CacheBudget, CachePolicy};
use kelle::edram::{RefreshIntervals, RefreshPolicy, RetentionModel};
use kelle::model::fault::{BitFlipRates, ProbabilisticFaults};
use kelle::model::generation::{evaluate_against_reference, run_reference, GenerationConfig};
use kelle::model::{ModelConfig, ModelKind, SurrogateModel};
use kelle::workloads::{TaskKind, TokenStreamGenerator};

fn quick(task: TaskKind) -> AccuracyConfig {
    let mut config = AccuracyConfig::for_task(task);
    config.prompts = 1;
    config
}

#[test]
fn fig8a_ppl_degrades_monotonically_with_error_rate() {
    // Uniform bit-flip error sweep under Kelle's own cache (AERP at the
    // default budget): higher rates must not improve fidelity.
    //
    // One fault realisation cannot show that.  The KL proxy has range only
    // up to a rate of 1e-4 (sixteen-seed means: eviction alone 0.489, 1e-5
    // 0.598, 5e-5 0.870, 1e-4 0.977); from there up some exponent bit fails
    // in nearly every stored row, the output is scrambled and the proxy sits
    // on a plateau of ≈ 0.98 (0.980 at 1e-3 and 1e-2, 0.977 at 5e-2) where
    // single seeds scatter by ±0.05 — neighbours there are not ordered.  A
    // row's failing cells are fixed for the row, so a failure stays in
    // every read of it; while each read drew its cells afresh, failures
    // averaged out over a row's reads and the plateau began at 1e-3 (1e-4
    // read 0.929).  Between 1e-5 and 5e-5 single steps are within noise
    // (2e-5 reads 0.701 ± 0.050, 3e-5 0.732 ± 0.060).  So each rate is the
    // mean over sixteen fault seeds of the same prompt; while the proxy has
    // range each step must grow by more than two standard errors of the
    // difference, and from 1e-4 on every rate must stay on the plateau, far
    // above anything an unsaturated rate scores.
    const FAULT_SEEDS: u64 = 16;
    const RATES: [f64; 7] = [0.0, 1e-5, 5e-5, 1e-4, 1e-3, 1e-2, 5e-2];
    const UNSATURATED: usize = 4;
    let accuracy = quick(TaskKind::WikiText2);
    let model = SurrogateModel::new(ModelConfig::for_kind(accuracy.model), 42);
    let prompt = TokenStreamGenerator::new(model.dims().vocab, 42).prompt(accuracy.task, 0);
    let config = GenerationConfig::greedy(prompt.decode_len);
    let reference = run_reference(&model, &prompt.tokens, config);
    // (mean, standard error of the mean) of the KL from the fault-free
    // reference over the fault realisations of a uniform `rate`; rate 0
    // draws nothing, so it has one realisation.
    let kl_at = |rate: f64| -> (f64, f64) {
        let seeds = if rate > 0.0 { FAULT_SEEDS } else { 1 };
        let kls: Vec<f64> = (0..seeds)
            .map(|seed| {
                let mut cache = Method::Kelle
                    .policy()
                    .build(accuracy.budget, model.dims().heads);
                let (fidelity, _) = evaluate_against_reference(
                    &model,
                    &prompt.tokens,
                    config,
                    &reference,
                    cache.as_mut(),
                    &mut ProbabilisticFaults::new(BitFlipRates::uniform(rate), seed),
                );
                fidelity.mean_kl
            })
            .collect();
        let n = kls.len() as f64;
        let mean = kls.iter().sum::<f64>() / n;
        let squares: f64 = kls.iter().map(|kl| (kl - mean) * (kl - mean)).sum();
        (mean, (squares / (n - 1.0).max(1.0) / n).sqrt())
    };
    // The rates are independent and this is the suite's longest test: run
    // them side by side.
    let sweep: Vec<(f64, f64)> = std::thread::scope(|scope| {
        let runs: Vec<_> = RATES
            .iter()
            .map(|&rate| scope.spawn(move || kl_at(rate)))
            .collect();
        runs.into_iter()
            .map(|run| run.join().expect("sweep thread"))
            .collect()
    });

    for (step, pair) in sweep[..UNSATURATED].windows(2).enumerate() {
        let ((low, low_se), (high, high_se)) = (pair[0], pair[1]);
        let two_se = 2.0 * (low_se * low_se + high_se * high_se).sqrt();
        assert!(
            high - two_se > low,
            "rate {} → {}: KL {low} ± {low_se} → {high} ± {high_se}",
            RATES[step],
            RATES[step + 1]
        );
    }
    let (plateau, _) = sweep[UNSATURATED - 1];
    for (rate, (kl, se)) in RATES.iter().zip(&sweep).skip(UNSATURATED) {
        assert!(
            (kl / plateau - 1.0).abs() < 0.05,
            "rate {rate}: KL {kl} ± {se} left the plateau at {plateau}"
        );
    }
}

#[test]
fn fig8c_msb_errors_hurt_more_than_lsb_errors() {
    let rate = 5e-2;
    let msb_only = BitFlipRates {
        hst_msb: rate,
        hst_lsb: 0.0,
        lst_msb: rate,
        lst_lsb: 0.0,
    };
    let lsb_only = BitFlipRates {
        hst_msb: 0.0,
        hst_lsb: rate,
        lst_msb: 0.0,
        lst_lsb: rate,
    };
    let msb = evaluate_method(
        &quick(TaskKind::WikiText2).with_explicit_rates(msb_only),
        Method::Kelle,
    );
    let lsb = evaluate_method(
        &quick(TaskKind::WikiText2).with_explicit_rates(lsb_only),
        Method::Kelle,
    );
    assert!(
        msb.fidelity.mean_kl > lsb.fidelity.mean_kl,
        "MSB corruption ({}) should hurt more than LSB corruption ({})",
        msb.fidelity.mean_kl,
        lsb.fidelity.mean_kl
    );
}

#[test]
fn table3_accuracy_declines_with_smaller_budgets() {
    // LLaMA2-7B accuracy vs cache budget: smaller N' should not improve the
    // fidelity proxy.
    let task = TaskKind::ArcEasy;
    let (prompt_len, _) = task.surrogate_lengths();
    let mut agreements = Vec::new();
    for budget_tokens in [prompt_len, prompt_len / 2, prompt_len / 4, 8] {
        let budget = CacheBudget::new(budget_tokens.max(4))
            .with_recent_window((budget_tokens / 2).max(2))
            .with_sink_tokens(2);
        let config = quick(task)
            .with_budget(budget)
            .with_refresh_policy(RefreshPolicy::Conservative);
        let result = evaluate_method(&config, Method::Kelle);
        agreements.push(result.fidelity.top1_agreement);
    }
    // Largest budget at least as faithful as the smallest.
    assert!(
        agreements.first().unwrap() >= agreements.last().unwrap(),
        "agreements {agreements:?}"
    );
}

#[test]
fn table2_kelle_competitive_with_h2o_and_better_than_streaming() {
    let config = quick(TaskKind::ArcChallenge);
    let kelle = evaluate_method(&config, Method::Kelle);
    let h2o = evaluate_method(&config, Method::H2o);
    let streaming = evaluate_method(&config, Method::StreamingLlm);
    // Kelle tracks H2O closely (both keep heavy hitters) and does not lose to
    // the recency-only policy (small tolerance for single-prompt proxy noise).
    assert!(
        kelle.score >= streaming.score * 0.97,
        "kelle {} vs streaming {}",
        kelle.score,
        streaming.score
    );
    assert!(
        kelle.score >= h2o.score * 0.85,
        "kelle {} vs h2o {}",
        kelle.score,
        h2o.score
    );
}

#[test]
fn table4_2drp_beats_uniform_at_matched_average_rate() {
    // Table 4: at the same average bit-flip rate, spending the refreshes on
    // the bits and tokens that matter (2DRP) preserves the output
    // distribution better than spreading them evenly (uniform).
    //
    // Operating point: the §8.3.4 sweep's 262 µs average (default intervals
    // × 0.25).  At the default intervals themselves the surrogate's KL proxy
    // is saturated — any MSB rate of 1e-3 or more scrambles attention and
    // every policy scores ≈ 1.0, whatever the cache keeps — so there is no
    // ordering to measure there; at × 0.25 all four classes still flip and
    // the proxy has range (16-seed means: 2DRP 0.79–0.81, uniform and the
    // control 0.98–1.00, standard error ≈ 0.01).
    //
    // The negative control swaps each token group's MSB and LSB intervals —
    // the same four rates protecting the wrong byte — and must score worse
    // than 2DRP, so the ordering cannot hold because faults do not matter.
    const MARGIN: f64 = 1.1;
    const FAULT_SEEDS: u64 = 16;
    let model = SurrogateModel::new(ModelConfig::for_kind(ModelKind::Llama2_7b), 42);
    let prompt = TokenStreamGenerator::new(model.dims().vocab, 42).prompt(TaskKind::ArcEasy, 0);
    let config = GenerationConfig::greedy(prompt.decode_len);
    let reference = run_reference(&model, &prompt.tokens, config);
    // Mean KL from the fault-free reference with every cached token kept
    // (the full store: no eviction, so retention faults are the only source of
    // divergence), averaged over the fault realisations of `rates`.
    let mean_fault_kl = |rates: BitFlipRates| -> f64 {
        let total: f64 = (0..FAULT_SEEDS)
            .map(|seed| {
                let (fidelity, _) = evaluate_against_reference(
                    &model,
                    &prompt.tokens,
                    config,
                    &reference,
                    &mut *CachePolicy::Full.build(CacheBudget::new(usize::MAX), model.dims().heads),
                    &mut ProbabilisticFaults::new(rates, seed),
                );
                fidelity.mean_kl
            })
            .sum();
        total / FAULT_SEEDS as f64
    };

    let retention = RetentionModel::default();
    let intervals = RefreshIntervals::paper_default().scaled(0.25);
    let byte_swapped = RefreshIntervals {
        hst_msb_us: intervals.hst_lsb_us,
        hst_lsb_us: intervals.hst_msb_us,
        lst_msb_us: intervals.lst_lsb_us,
        lst_lsb_us: intervals.lst_msb_us,
    };
    let rates_of = |intervals| RefreshPolicy::TwoDimensional(intervals).bit_flip_rates(&retention);
    let twodrp_rates = rates_of(intervals);

    let twodrp = mean_fault_kl(twodrp_rates);
    let uniform = mean_fault_kl(BitFlipRates::uniform(twodrp_rates.average()));
    let control = mean_fault_kl(rates_of(byte_swapped));
    assert!(twodrp > 0.0, "2DRP faults must be observable");
    assert!(
        twodrp * MARGIN <= uniform,
        "2DRP KL {twodrp} vs uniform KL {uniform}"
    );
    assert!(
        twodrp * MARGIN <= control,
        "2DRP KL {twodrp} vs byte-swapped KL {control}"
    );
}

#[test]
fn table5_quality_proxies_stay_close_to_reference() {
    for task in TaskKind::table5() {
        let config = quick(task);
        let kelle = evaluate_method(&config, Method::Kelle);
        let reference = task.llama2_7b_fp16_reference();
        assert!(
            kelle.score > reference * 0.3,
            "{task:?}: score {} vs reference {reference}",
            kelle.score
        );
        assert!(kelle.score <= reference * 1.001);
    }
}
