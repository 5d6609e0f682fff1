//! Deterministic synthetic token-stream generation.
//!
//! The generator produces prompts whose statistics mirror what the KV-cache
//! policies are sensitive to:
//!
//! * a Zipf-distributed body (a few token types dominate, so accumulated
//!   attention concentrates on a few positions — the heavy hitters);
//! * periodic re-occurrences of a small set of *anchor* tokens planted early
//!   in the prompt (long-range retrieval structure, which punishes policies
//!   that only keep recent tokens);
//! * task-dependent lengths from [`TaskKind::surrogate_lengths`].

use crate::task::TaskKind;
use kelle_tensor::rng::{self, DetRng};
use rand::Rng;

/// A generated prompt plus metadata about its planted structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedPrompt {
    /// Which task the prompt belongs to.
    pub(crate) task: TaskKind,
    /// The prompt tokens (vocabulary ids).
    pub tokens: Vec<usize>,
    /// Number of decode steps the experiment should run after the prompt.
    pub decode_len: usize,
    /// The anchor token ids planted in the prompt (long-range dependencies).
    pub(crate) anchors: Vec<usize>,
}

/// Exponent of the Zipf distribution filler tokens are drawn from (how
/// skewed the token distribution is).
const ZIPF_EXPONENT: f32 = 1.1;

/// Deterministic prompt generator over a fixed vocabulary.
#[derive(Debug, Clone)]
pub struct TokenStreamGenerator {
    vocab: usize,
    seed: u64,
    anchor_count: usize,
    anchor_period: usize,
}

impl TokenStreamGenerator {
    /// Creates a generator over a vocabulary of `vocab` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `vocab < 16`.
    pub fn new(vocab: usize, seed: u64) -> Self {
        assert!(vocab >= 16, "vocabulary must have at least 16 tokens");
        TokenStreamGenerator {
            vocab,
            seed,
            anchor_count: 4,
            anchor_period: 17,
        }
    }

    /// Generates the `index`-th prompt for a task.
    pub fn prompt(&self, task: TaskKind, index: usize) -> GeneratedPrompt {
        let (prompt_len, decode_len) = task.surrogate_lengths();
        let mut rng: DetRng = rng::substream(self.seed, &format!("{}-{}", task.label(), index));

        // Anchor tokens: rare ids planted early and re-mentioned periodically.
        let anchors: Vec<usize> = (0..self.anchor_count)
            .map(|_| rng.gen_range(self.vocab / 2..self.vocab))
            .collect();

        let mut tokens = Vec::with_capacity(prompt_len);
        for position in 0..prompt_len {
            let token = if position < self.anchor_count {
                anchors[position]
            } else if position % self.anchor_period == 0 {
                anchors[rng.gen_range(0..anchors.len())]
            } else {
                rng::zipf_index(&mut rng, self.vocab / 2, ZIPF_EXPONENT)
            };
            tokens.push(token);
        }

        GeneratedPrompt {
            task,
            tokens,
            decode_len,
            anchors,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prompts_are_deterministic() {
        let generator = TokenStreamGenerator::new(512, 7);
        let a = generator.prompt(TaskKind::WikiText2, 0);
        let b = generator.prompt(TaskKind::WikiText2, 0);
        assert_eq!(a, b);
        let c = generator.prompt(TaskKind::WikiText2, 1);
        assert_ne!(a.tokens, c.tokens);
    }

    #[test]
    fn prompt_lengths_match_task() {
        let generator = TokenStreamGenerator::new(512, 7);
        let table2 = [
            TaskKind::WikiText2,
            TaskKind::Pg19,
            TaskKind::ArcChallenge,
            TaskKind::ArcEasy,
            TaskKind::Piqa,
            TaskKind::Lambada,
            TaskKind::TriviaQa,
            TaskKind::Qasper,
        ];
        for task in table2 {
            let p = generator.prompt(task, 0);
            let (prompt_len, decode_len) = task.surrogate_lengths();
            assert_eq!(p.tokens.len(), prompt_len);
            assert_eq!(p.decode_len, decode_len);
            assert!(p.tokens.iter().all(|&t| t < 512));
        }
    }

    #[test]
    fn anchors_are_planted_and_repeated() {
        let generator = TokenStreamGenerator::new(512, 11);
        let p = generator.prompt(TaskKind::Qasper, 3);
        for (i, anchor) in p.anchors.iter().enumerate() {
            assert_eq!(p.tokens[i], *anchor);
        }
        // Anchors reappear later in the prompt.
        let later_mentions = p.tokens[p.anchors.len()..]
            .iter()
            .filter(|t| p.anchors.contains(t))
            .count();
        assert!(later_mentions > 0);
    }

    #[test]
    fn token_distribution_is_skewed() {
        let generator = TokenStreamGenerator::new(512, 13);
        let mut counts = vec![0usize; 512];
        for i in 0..20 {
            for t in generator.prompt(TaskKind::Pg19, i).tokens {
                counts[t] += 1;
            }
        }
        let mut sorted = counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = sorted.iter().sum();
        let top16: usize = sorted.iter().take(16).sum();
        assert!(
            top16 as f64 > 0.4 * total as f64,
            "top tokens should dominate: {top16}/{total}"
        );
    }

    #[test]
    #[should_panic(expected = "at least 16 tokens")]
    fn tiny_vocab_panics() {
        TokenStreamGenerator::new(8, 1);
    }
}
