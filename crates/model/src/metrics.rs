//! Fidelity metrics against the full-cache, fault-free reference.
//!
//! Real perplexity and task accuracy require the actual model checkpoints and
//! datasets.  The reproduction instead measures how much a configuration
//! (eviction policy, quantization, retention faults) perturbs the surrogate
//! model's output distribution relative to an exact reference run, and reports
//! three quantities:
//!
//! * **PPL proxy** — `exp(mean cross-entropy)` of the test configuration's
//!   next-token distribution evaluated at the token the *reference* predicts.
//!   The reference's own PPL proxy plays the role of the FP16 row of Table 2;
//!   corruption can only increase it.
//! * **mean KL divergence** between reference and test distributions.
//! * **top-1 agreement** — the fraction of steps where both configurations
//!   predict the same next token; used to derive task-accuracy proxies
//!   (a configuration that always agrees with the uncompressed model would get
//!   the same answers on a downstream task).

use kelle_tensor::ops;

/// Final fidelity numbers for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FidelityMetrics {
    /// `exp(mean cross-entropy)` against the reference-predicted tokens.
    pub ppl_proxy: f64,
    /// Mean KL divergence `KL(reference || test)` per decoding step.
    pub mean_kl: f64,
    /// Fraction of steps where the test configuration's top-1 prediction
    /// matches the reference.
    pub top1_agreement: f64,
    /// Number of decoding steps accumulated.
    pub steps: usize,
}

impl FidelityMetrics {
    /// Derives a task-accuracy proxy by scaling a published baseline accuracy
    /// with the top-1 agreement of this run.
    ///
    /// The rationale: on a discriminative task, the compressed model can only
    /// change the answer on steps where its prediction diverges from the
    /// reference, so `baseline * agreement + chance * (1 - agreement)` bounds
    /// the expected accuracy (with `chance` the random-guess accuracy).
    pub fn accuracy_proxy(&self, baseline_accuracy: f64, chance_accuracy: f64) -> f64 {
        baseline_accuracy * self.top1_agreement + chance_accuracy * (1.0 - self.top1_agreement)
    }

    /// Derives a generative-quality proxy (e.g. ROUGE-like score) from the
    /// baseline score, degraded by the average distributional drift.
    pub fn quality_proxy(&self, baseline_score: f64) -> f64 {
        let drift_penalty = (self.mean_kl).min(1.0);
        baseline_score * (1.0 - 0.25 * drift_penalty) * self.top1_agreement.max(0.5)
    }
}

/// Accumulates fidelity statistics step by step.
#[derive(Debug, Clone, Default)]
pub(crate) struct FidelityAccumulator {
    sum_ce: f64,
    sum_kl: f64,
    top1_matches: usize,
    steps: usize,
}

impl FidelityAccumulator {
    /// Creates an empty accumulator.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records one decoding step.
    ///
    /// `reference_probs` is the reference configuration's next-token
    /// distribution, `test_probs` the distribution under the configuration
    /// being evaluated.
    ///
    /// # Panics
    ///
    /// Panics if the two distributions have different lengths or are empty.
    pub(crate) fn record(&mut self, reference_probs: &[f32], test_probs: &[f32]) {
        assert_eq!(reference_probs.len(), test_probs.len());
        assert!(!reference_probs.is_empty());
        let ref_top1 = argmax(reference_probs);
        let test_top1 = argmax(test_probs);
        self.sum_ce += f64::from(ops::cross_entropy(test_probs, ref_top1));
        self.sum_kl += f64::from(ops::kl_divergence(reference_probs, test_probs));
        if ref_top1 == test_top1 {
            self.top1_matches += 1;
        }
        self.steps += 1;
    }

    /// Finalizes the metrics.
    ///
    /// Returns conservative defaults (`ppl_proxy = inf`) if no steps were
    /// recorded.
    pub(crate) fn finish(&self) -> FidelityMetrics {
        if self.steps == 0 {
            return FidelityMetrics {
                ppl_proxy: f64::INFINITY,
                mean_kl: f64::INFINITY,
                top1_agreement: 0.0,
                steps: 0,
            };
        }
        let n = self.steps as f64;
        FidelityMetrics {
            ppl_proxy: (self.sum_ce / n).exp(),
            mean_kl: self.sum_kl / n,
            top1_agreement: self.top1_matches as f64 / n,
            steps: self.steps,
        }
    }
}

fn argmax(values: &[f32]) -> usize {
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_runs_have_perfect_agreement() {
        let mut acc = FidelityAccumulator::new();
        let probs = ops::softmax(&[0.2, 1.5, -0.3, 0.9]);
        for _ in 0..10 {
            acc.record(&probs, &probs);
        }
        let m = acc.finish();
        assert_eq!(m.top1_agreement, 1.0);
        assert!(m.mean_kl < 1e-6);
        assert_eq!(m.steps, 10);
    }

    #[test]
    fn corrupted_runs_have_higher_ppl() {
        let reference = ops::softmax(&[3.0, 0.0, 0.0, 0.0]);
        let good = ops::softmax(&[2.8, 0.1, 0.0, 0.0]);
        let bad = ops::softmax(&[0.0, 0.0, 3.0, 0.0]);

        let mut acc_good = FidelityAccumulator::new();
        let mut acc_bad = FidelityAccumulator::new();
        for _ in 0..5 {
            acc_good.record(&reference, &good);
            acc_bad.record(&reference, &bad);
        }
        let mg = acc_good.finish();
        let mb = acc_bad.finish();
        assert!(mb.ppl_proxy > mg.ppl_proxy);
        assert!(mb.mean_kl > mg.mean_kl);
        assert!(mb.top1_agreement < mg.top1_agreement);
    }

    #[test]
    fn empty_accumulator_is_conservative() {
        let m = FidelityAccumulator::new().finish();
        assert!(m.ppl_proxy.is_infinite());
        assert_eq!(m.top1_agreement, 0.0);
    }

    #[test]
    fn accuracy_proxy_interpolates() {
        let m = FidelityMetrics {
            ppl_proxy: 6.0,
            mean_kl: 0.1,
            top1_agreement: 0.9,
            steps: 100,
        };
        let acc = m.accuracy_proxy(80.0, 25.0);
        assert!(acc < 80.0 && acc > 70.0);
        let perfect = FidelityMetrics {
            top1_agreement: 1.0,
            ..m
        };
        assert!((perfect.accuracy_proxy(80.0, 25.0) - 80.0).abs() < 1e-9);
    }

    #[test]
    fn quality_proxy_degrades_with_divergence() {
        let good = FidelityMetrics {
            ppl_proxy: 5.0,
            mean_kl: 0.01,
            top1_agreement: 0.98,
            steps: 10,
        };
        let bad = FidelityMetrics {
            ppl_proxy: 30.0,
            mean_kl: 2.0,
            top1_agreement: 0.6,
            steps: 10,
        };
        assert!(good.quality_proxy(40.0) > bad.quality_proxy(40.0));
    }
}
