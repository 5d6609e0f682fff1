//! The task catalogue of the paper's evaluation (§7.1, Tables 2 and 5).

/// How a task's quality is scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskMetric {
    /// Perplexity (lower is better).
    Perplexity,
    /// Multiple-choice / exact-match accuracy in percent (higher is better).
    Accuracy,
    /// Generative quality score such as ROUGE-1 (higher is better).
    Quality,
}

/// One of the evaluation tasks used in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum TaskKind {
    /// WikiText-2 language modelling (Table 2, "WK2").
    WikiText2,
    /// PG19 long-form book generation (Table 2, "PG19").
    Pg19,
    /// ARC-Challenge (Table 2, "A-c").
    ArcChallenge,
    /// ARC-Easy (Table 2, "A-e").
    ArcEasy,
    /// PIQA (Table 2, "PQ").
    Piqa,
    /// Lambada (Table 2, "LA").
    Lambada,
    /// TriviaQA (Table 2, "TQ").
    TriviaQa,
    /// Qasper (Table 2, "QP").
    Qasper,
    /// CNN/DailyMail summarization (Table 5, ROUGE-1).
    CnnDailyMail,
    /// TruthfulQA multiple choice (Table 5).
    TruthfulQa,
    /// BBQ bias benchmark (Table 5).
    Bbq,
}

impl TaskKind {
    /// The three Table 5 qualitative tasks.
    pub fn table5() -> [TaskKind; 3] {
        [TaskKind::CnnDailyMail, TaskKind::TruthfulQa, TaskKind::Bbq]
    }

    /// Short label matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            TaskKind::WikiText2 => "WK2",
            TaskKind::Pg19 => "PG19",
            TaskKind::ArcChallenge => "A-c",
            TaskKind::ArcEasy => "A-e",
            TaskKind::Piqa => "PQ",
            TaskKind::Lambada => "LA",
            TaskKind::TriviaQa => "TQ",
            TaskKind::Qasper => "QP",
            TaskKind::CnnDailyMail => "CNN",
            TaskKind::TruthfulQa => "Truth",
            TaskKind::Bbq => "BBQ",
        }
    }

    /// How the task is scored.
    pub fn metric(self) -> TaskMetric {
        match self {
            TaskKind::WikiText2 | TaskKind::Pg19 => TaskMetric::Perplexity,
            TaskKind::CnnDailyMail => TaskMetric::Quality,
            _ => TaskMetric::Accuracy,
        }
    }

    /// The LLaMA2-7B FP16 reference score for this task from Table 2 / Table 5
    /// of the paper, used to express fidelity-proxy degradations on the same
    /// scale the paper reports.
    pub fn llama2_7b_fp16_reference(self) -> f64 {
        match self {
            TaskKind::WikiText2 => 5.47,
            TaskKind::Pg19 => 10.51,
            TaskKind::ArcChallenge => 46.33,
            TaskKind::ArcEasy => 74.62,
            TaskKind::Piqa => 79.11,
            TaskKind::Lambada => 73.90,
            TaskKind::TriviaQa => 48.95,
            TaskKind::Qasper => 12.69,
            TaskKind::CnnDailyMail => 40.58,
            TaskKind::TruthfulQa => 34.28,
            TaskKind::Bbq => 95.21,
        }
    }

    /// Random-guess score for accuracy-style tasks (used by the accuracy
    /// proxy's interpolation); zero for perplexity/quality tasks.
    pub fn chance_score(self) -> f64 {
        match self {
            TaskKind::ArcChallenge | TaskKind::ArcEasy => 25.0,
            TaskKind::Piqa => 50.0,
            TaskKind::Lambada => 0.5,
            TaskKind::TriviaQa | TaskKind::Qasper => 5.0,
            TaskKind::TruthfulQa => 22.0,
            TaskKind::Bbq => 50.0,
            _ => 0.0,
        }
    }

    /// Surrogate (prompt length, decode length) used by the functional-model
    /// accuracy experiments.  These are scaled-down relative to the real
    /// datasets in the same proportion as the surrogate model itself, keeping
    /// the ratio of sequence length to cache budget representative.
    pub fn surrogate_lengths(self) -> (usize, usize) {
        match self {
            TaskKind::WikiText2 => (96, 96),
            TaskKind::Pg19 => (64, 256),
            TaskKind::ArcChallenge | TaskKind::ArcEasy => (48, 32),
            TaskKind::Piqa => (40, 32),
            TaskKind::Lambada => (48, 32),
            TaskKind::TriviaQa => (128, 64),
            TaskKind::Qasper => (160, 64),
            TaskKind::CnnDailyMail => (128, 96),
            TaskKind::TruthfulQa => (48, 32),
            TaskKind::Bbq => (48, 32),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The eight Table 2 tasks in column order.
    const TABLE2: [TaskKind; 8] = [
        TaskKind::WikiText2,
        TaskKind::Pg19,
        TaskKind::ArcChallenge,
        TaskKind::ArcEasy,
        TaskKind::Piqa,
        TaskKind::Lambada,
        TaskKind::TriviaQa,
        TaskKind::Qasper,
    ];

    #[test]
    fn labels_and_metrics() {
        assert_eq!(TaskKind::WikiText2.label(), "WK2");
        assert_eq!(TaskKind::WikiText2.metric(), TaskMetric::Perplexity);
        assert_eq!(TaskKind::Piqa.metric(), TaskMetric::Accuracy);
        assert_eq!(TaskKind::CnnDailyMail.metric(), TaskMetric::Quality);
    }

    #[test]
    fn table2_has_eight_tasks() {
        let table2: HashSet<TaskKind> = TABLE2.into_iter().collect();
        assert_eq!(table2.len(), 8);
        assert_eq!(TaskKind::table5().len(), 3);
        assert!(TaskKind::table5().iter().all(|t| !table2.contains(t)));
    }

    #[test]
    fn reference_scores_match_paper() {
        assert!((TaskKind::WikiText2.llama2_7b_fp16_reference() - 5.47).abs() < 1e-9);
        assert!((TaskKind::Piqa.llama2_7b_fp16_reference() - 79.11).abs() < 1e-9);
        assert!((TaskKind::Bbq.llama2_7b_fp16_reference() - 95.21).abs() < 1e-9);
    }

    #[test]
    fn surrogate_lengths_are_positive_and_ordered() {
        for task in TABLE2.into_iter().chain(TaskKind::table5()) {
            let (prompt, decode) = task.surrogate_lengths();
            assert!(prompt > 0 && decode > 0, "{task:?}");
        }
        // The long-context tasks have longer surrogate prompts than zero-shot.
        assert!(TaskKind::Qasper.surrogate_lengths().0 > TaskKind::Piqa.surrogate_lengths().0);
    }

    #[test]
    fn chance_below_reference_for_accuracy_tasks() {
        for task in TABLE2 {
            if task.metric() == TaskMetric::Accuracy {
                assert!(task.chance_score() < task.llama2_7b_fp16_reference());
            }
        }
    }
}
