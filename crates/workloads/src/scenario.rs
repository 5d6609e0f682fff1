//! Multi-session serving scenarios.
//!
//! The single-prompt generator ([`crate::generator`]) models one request;
//! serving experiments additionally need *fleets* of concurrent sessions
//! with realistic cross-session structure.  The scenario here is the
//! shared-system-prompt fleet (fleet-scale arrival traces live in
//! [`crate::trace`]): edge chatbots front every conversation with
//! the same instruction preamble, so N concurrent sessions share one long
//! common prefix and differ only in their (much shorter) user turns — the
//! workload cross-session prefix sharing exists for.

use kelle_tensor::rng::{self, DetRng};
use rand::Rng;

/// A deterministic fleet of sessions sharing one system prompt.
///
/// Session `i`'s first prompt is `system_prompt() ++ user_suffix(i)`.  The
/// system prompt is drawn once from the scenario seed; the per-session user
/// suffixes come from decorrelated substreams, so two scenarios with the
/// same parameters are identical token-for-token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedPromptScenario {
    /// Number of concurrent sessions.
    pub sessions: usize,
    /// Tokens in the shared system prompt.
    pub system_tokens: usize,
    /// Tokens in each session's private user suffix.
    pub user_tokens: usize,
    /// Decode steps each session requests.
    pub decode_len: usize,
    /// Vocabulary size prompts are drawn from.
    pub(crate) vocab: usize,
    /// Scenario seed.
    pub(crate) seed: u64,
}

impl SharedPromptScenario {
    /// A scenario of `sessions` sessions sharing a `system_tokens`-token
    /// system prompt.
    ///
    /// # Panics
    ///
    /// Panics if any of `sessions`, `system_tokens`, `user_tokens`,
    /// `decode_len` is zero, or `vocab < 16`.
    pub fn new(sessions: usize, system_tokens: usize, user_tokens: usize) -> Self {
        let scenario = SharedPromptScenario {
            sessions,
            system_tokens,
            user_tokens,
            decode_len: 16,
            vocab: 512,
            seed: 23,
        };
        scenario.validate();
        scenario
    }

    /// Overrides the decode length (builder style).
    pub fn with_decode_len(mut self, decode_len: usize) -> Self {
        self.decode_len = decode_len;
        self.validate();
        self
    }

    fn validate(&self) {
        assert!(self.sessions > 0, "scenario needs at least one session");
        assert!(self.system_tokens > 0, "system prompt must be non-empty");
        assert!(self.user_tokens > 0, "user suffix must be non-empty");
        assert!(self.decode_len > 0, "decode length must be non-zero");
        assert!(self.vocab >= 16, "vocabulary must have at least 16 tokens");
    }

    fn stream(&self, label: &str, len: usize) -> Vec<usize> {
        let mut rng: DetRng = rng::substream(self.seed, label);
        (0..len)
            .map(|_| {
                // Zipf body over the lower half of the vocabulary: the same
                // heavy-hitter structure as the single-prompt generator, so
                // cache policies behave realistically over the shared prefix.
                if rng.gen::<f32>() < 0.1 {
                    rng.gen_range(self.vocab / 2..self.vocab)
                } else {
                    rng::zipf_index(&mut rng, self.vocab / 2, 1.1)
                }
            })
            .collect()
    }

    /// The shared system prompt (identical for every session).
    pub fn system_prompt(&self) -> Vec<usize> {
        self.stream("system", self.system_tokens)
    }

    /// Session `i`'s private user suffix.
    pub(crate) fn user_suffix(&self, session: usize) -> Vec<usize> {
        self.stream(&format!("user-{session}"), self.user_tokens)
    }

    /// Session `i`'s full first prompt: system prompt + user suffix.
    pub(crate) fn session_prompt(&self, session: usize) -> Vec<usize> {
        let mut prompt = self.system_prompt();
        prompt.extend(self.user_suffix(session));
        prompt
    }

    /// All session prompts, in session order.
    pub fn prompts(&self) -> Vec<Vec<usize>> {
        (0..self.sessions).map(|i| self.session_prompt(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prompts_share_the_system_prefix_and_differ_after() {
        let scenario = SharedPromptScenario::new(4, 32, 8);
        let system = scenario.system_prompt();
        assert_eq!(system.len(), 32);
        for i in 0..scenario.sessions {
            let prompt = scenario.session_prompt(i);
            assert_eq!(prompt.len(), 40);
            assert_eq!(&prompt[..32], &system[..]);
            assert!(prompt.iter().all(|&t| t < scenario.vocab));
        }
        // User suffixes are decorrelated.
        assert_ne!(scenario.user_suffix(0), scenario.user_suffix(1));
    }

    #[test]
    fn scenario_is_deterministic() {
        let seeded = |seed| SharedPromptScenario {
            seed,
            ..SharedPromptScenario::new(3, 16, 4)
        };
        let (a, b) = (seeded(9), seeded(9));
        assert_eq!(a.prompts(), b.prompts());
        let c = seeded(10);
        assert_ne!(a.system_prompt(), c.system_prompt());
    }

    #[test]
    #[should_panic(expected = "at least one session")]
    fn zero_sessions_panics() {
        SharedPromptScenario::new(0, 8, 2);
    }
}
