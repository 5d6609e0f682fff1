//! Fleet-scale serving traces.
//!
//! The scenarios in `crate::scenario` pin small fixed fleets; capacity
//! planning needs *traces*: thousands of sessions arriving over time under a
//! stochastic arrival process, with heterogeneous prompt/response lengths,
//! multi-turn conversations separated by think time, and nested prefix
//! hierarchies (system prompt → per-tool preamble → per-user history).
//! [`TraceEngine`] generates such traces deterministically from a seed —
//! pure data, independent of the serving stack.  The serving side converts
//! each [`TraceRequest`] into a `ServeRequest` with an arrival tick and
//! publishes each [`HierarchyPublication`] as a nested prefix hierarchy
//! before replay.
//!
//! Time is measured in *scheduler ticks* (one decode round), the same
//! deterministic clock the serving stack's SLO report uses.

use kelle_tensor::rng::{self, DetRng};
use rand::Rng;

/// Uniform draw from an inclusive `(min, max)` range (the vendored `rand`
/// only samples half-open ranges).
fn draw(rng: &mut DetRng, (lo, hi): (usize, usize)) -> usize {
    rng.gen_range(lo..hi + 1)
}

fn draw_ticks(rng: &mut DetRng, (lo, hi): (u64, u64)) -> u64 {
    rng.gen_range(lo..hi + 1)
}

/// One class of session in the heterogeneous mixture.
///
/// Lengths are drawn uniformly from the inclusive ranges, per session, from
/// a substream decorrelated by session index — two traces with the same
/// config are identical token-for-token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionArchetype {
    /// Display name (shows up in benchmark tables).
    pub(crate) name: String,
    /// Sampling weight within the mixture (> 0).
    pub(crate) weight: u32,
    /// Fresh prompt tokens per turn (beyond the shared hierarchy prefix),
    /// as an inclusive `(min, max)` range; min must be > 0.
    pub(crate) prompt_tokens: (usize, usize),
    /// Decode tokens requested per turn, inclusive range; min must be > 0.
    pub(crate) decode_tokens: (usize, usize),
    /// Conversation turns per session, inclusive range; min must be > 0.
    pub(crate) turns: (usize, usize),
    /// Think-time ticks between a turn finishing and the next turn being
    /// issued, inclusive range.
    pub(crate) think_ticks: (u64, u64),
}

impl SessionArchetype {
    /// A single-turn archetype with fixed ranges.
    pub fn new(name: &str, weight: u32, prompt_tokens: (usize, usize)) -> Self {
        SessionArchetype {
            name: name.to_string(),
            weight,
            prompt_tokens,
            decode_tokens: (4, 8),
            turns: (1, 1),
            think_ticks: (0, 0),
        }
    }

    /// Overrides the decode-token range (builder style).
    pub fn with_decode_tokens(mut self, range: (usize, usize)) -> Self {
        self.decode_tokens = range;
        self
    }

    /// Makes the archetype multi-turn (builder style).
    pub fn with_turns(mut self, turns: (usize, usize), think_ticks: (u64, u64)) -> Self {
        self.turns = turns;
        self.think_ticks = think_ticks;
        self
    }

    fn validate(&self) {
        assert!(self.weight > 0, "archetype weight must be non-zero");
        for (label, (lo, hi)) in [
            ("prompt", self.prompt_tokens),
            ("decode", self.decode_tokens),
            ("turns", self.turns),
        ] {
            assert!(lo > 0, "{label} range minimum must be non-zero");
            assert!(lo <= hi, "{label} range must be ordered min <= max");
        }
        assert!(
            self.think_ticks.0 <= self.think_ticks.1,
            "think range must be ordered min <= max"
        );
    }
}

/// The nested prefix hierarchy every session's prompt is prefixed with:
/// one shared system prompt, then one of `tools` per-tool preambles, then
/// one of `users` per-user histories — three radix levels deep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixHierarchy {
    /// Tokens in the fleet-wide system prompt (> 0).
    pub(crate) system_tokens: usize,
    /// Number of distinct tool preambles (> 0).
    pub(crate) tools: usize,
    /// Tokens per tool preamble (> 0).
    pub(crate) tool_tokens: usize,
    /// Number of distinct per-user histories per tool (> 0).
    pub(crate) users: usize,
    /// Tokens per user history (> 0).
    pub(crate) user_tokens: usize,
}

impl PrefixHierarchy {
    /// A three-level hierarchy with the given shape.
    pub fn new(system_tokens: usize, tools: usize, tool_tokens: usize) -> Self {
        PrefixHierarchy {
            system_tokens,
            tools,
            tool_tokens,
            users: 4,
            user_tokens: 8,
        }
    }

    /// Overrides the per-user history level (builder style).
    pub fn with_users(mut self, users: usize, user_tokens: usize) -> Self {
        self.users = users;
        self.user_tokens = user_tokens;
        self
    }

    fn validate(&self) {
        assert!(self.system_tokens > 0, "system prompt must be non-empty");
        assert!(self.tools > 0, "hierarchy needs at least one tool");
        assert!(self.tool_tokens > 0, "tool preambles must be non-empty");
        assert!(self.users > 0, "hierarchy needs at least one user");
        assert!(self.user_tokens > 0, "user histories must be non-empty");
    }

    /// Number of distinct `(tool, user)` leaves.
    pub(crate) fn leaves(&self) -> usize {
        self.tools * self.users
    }
}

/// Configuration of a [`TraceEngine`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Number of sessions in the trace (> 0).
    pub(crate) sessions: usize,
    /// Mean gap between session starts in ticks (> 0): starts are a
    /// homogeneous Poisson process.
    pub(crate) mean_interarrival_ticks: f64,
    /// The heterogeneous session mixture (non-empty).
    pub(crate) archetypes: Vec<SessionArchetype>,
    /// The nested prefix hierarchy prompts are prefixed with.
    pub(crate) hierarchy: PrefixHierarchy,
    /// Vocabulary size tokens are drawn from (>= 16).
    pub(crate) vocab: usize,
    /// Trace seed: same seed, same trace, token-for-token.
    pub(crate) seed: u64,
}

impl TraceConfig {
    /// A trace of `sessions` Poisson arrivals with a default mixed fleet:
    /// 60 % short chat turns, 30 % medium multi-turn conversations, 10 %
    /// long-form requests.
    pub fn poisson(sessions: usize, mean_interarrival_ticks: f64) -> Self {
        let config = TraceConfig {
            sessions,
            mean_interarrival_ticks,
            archetypes: vec![
                SessionArchetype::new("chat-short", 6, (4, 10)).with_decode_tokens((3, 6)),
                SessionArchetype::new("chat-multi", 3, (6, 14))
                    .with_decode_tokens((4, 8))
                    .with_turns((2, 3), (2, 10)),
                SessionArchetype::new("longform", 1, (16, 32)).with_decode_tokens((8, 12)),
            ],
            hierarchy: PrefixHierarchy::new(24, 3, 12).with_users(4, 8),
            vocab: 512,
            seed: 29,
        };
        config.validate();
        config
    }

    /// Overrides the archetype mixture (builder style).
    pub fn with_archetypes(mut self, archetypes: Vec<SessionArchetype>) -> Self {
        self.archetypes = archetypes;
        self.validate();
        self
    }

    /// Overrides the prefix hierarchy (builder style).
    pub fn with_hierarchy(mut self, hierarchy: PrefixHierarchy) -> Self {
        self.hierarchy = hierarchy;
        self.validate();
        self
    }

    /// Overrides the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn validate(&self) {
        assert!(self.sessions > 0, "trace needs at least one session");
        assert!(!self.archetypes.is_empty(), "mixture must be non-empty");
        assert!(
            self.mean_interarrival_ticks > 0.0,
            "mean inter-arrival gap must be positive"
        );
        for archetype in &self.archetypes {
            archetype.validate();
        }
        self.hierarchy.validate();
        assert!(self.vocab >= 16, "vocabulary must have at least 16 tokens");
    }
}

/// One request of a generated trace: turn `turn` of session `session`,
/// submitted at `arrival_tick` on the scheduler clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRequest {
    /// Session index within the trace.
    pub(crate) session: usize,
    /// Zero-based turn index within the session.
    pub(crate) turn: usize,
    /// Index into [`TraceConfig::archetypes`].
    pub(crate) archetype: usize,
    /// Scheduler tick the request arrives at.
    pub arrival_tick: u64,
    /// Full prompt: hierarchy prefix + conversation history + fresh turn
    /// tokens.
    pub prompt: Vec<usize>,
    /// Decode tokens the request asks for.
    pub decode_len: usize,
}

/// One nested prefix hierarchy to publish before replay: the three-level
/// token vector with its level boundaries, ready for
/// `KelleEngine::publish_prefix_hierarchy`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyPublication {
    /// Tool index of the leaf.
    pub tool: usize,
    /// User index of the leaf.
    pub(crate) user: usize,
    /// system ++ tool preamble ++ user history.
    pub tokens: Vec<usize>,
    /// Strictly increasing level boundaries (system, +tool, +user).
    pub boundaries: Vec<usize>,
}

/// A generated trace: requests sorted by arrival tick plus the prefix
/// hierarchies they assume published.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// All requests, sorted by `(arrival_tick, session, turn)`.
    pub requests: Vec<TraceRequest>,
    /// One publication per `(tool, user)` leaf, in `(tool, user)` order.
    /// Sibling leaves share their first one/two boundaries; the publishing
    /// engine deduplicates those.
    pub publications: Vec<HierarchyPublication>,
    /// The last arrival tick in the trace.
    pub(crate) horizon_ticks: u64,
}

/// Deterministic trace generator.
///
/// ```rust
/// use kelle_workloads::{TraceConfig, TraceEngine};
///
/// let trace = TraceEngine::new(TraceConfig::poisson(100, 2.0)).generate();
/// assert!(trace.requests.len() >= 100, "multi-turn sessions add requests");
/// let again = TraceEngine::new(TraceConfig::poisson(100, 2.0)).generate();
/// assert_eq!(trace, again, "same seed, same trace");
/// ```
#[derive(Debug, Clone)]
pub struct TraceEngine {
    config: TraceConfig,
}

impl TraceEngine {
    /// A generator for the given configuration.
    pub fn new(config: TraceConfig) -> Self {
        config.validate();
        TraceEngine { config }
    }

    fn stream(&self, label: &str, len: usize) -> Vec<usize> {
        let mut rng: DetRng = rng::substream(self.config.seed, label);
        let vocab = self.config.vocab;
        (0..len)
            .map(|_| {
                // Same heavy-hitter structure as the scenario fleets: a Zipf
                // body over the lower half of the vocabulary with a uniform
                // upper-half tail.
                if rng.gen::<f32>() < 0.1 {
                    rng.gen_range(vocab / 2..vocab)
                } else {
                    rng::zipf_index(&mut rng, vocab / 2, 1.1)
                }
            })
            .collect()
    }

    /// The fleet-wide system prompt (hierarchy level 1).
    pub(crate) fn system_prompt(&self) -> Vec<usize> {
        self.stream("hier-system", self.config.hierarchy.system_tokens)
    }

    /// Tool preamble `tool` (hierarchy level 2).
    pub(crate) fn tool_preamble(&self, tool: usize) -> Vec<usize> {
        self.stream(
            &format!("hier-tool-{tool}"),
            self.config.hierarchy.tool_tokens,
        )
    }

    /// User history `user` under `tool` (hierarchy level 3).
    pub(crate) fn user_history(&self, tool: usize, user: usize) -> Vec<usize> {
        self.stream(
            &format!("hier-user-{tool}-{user}"),
            self.config.hierarchy.user_tokens,
        )
    }

    /// All `(tool, user)` hierarchy publications, each carrying its three
    /// strictly increasing level boundaries.
    pub(crate) fn publications(&self) -> Vec<HierarchyPublication> {
        let hierarchy = self.config.hierarchy;
        let system = self.system_prompt();
        let mut publications = Vec::with_capacity(hierarchy.leaves());
        for tool in 0..hierarchy.tools {
            let preamble = self.tool_preamble(tool);
            for user in 0..hierarchy.users {
                let mut tokens = system.clone();
                tokens.extend_from_slice(&preamble);
                let after_tool = tokens.len();
                tokens.extend(self.user_history(tool, user));
                publications.push(HierarchyPublication {
                    tool,
                    user,
                    boundaries: vec![system.len(), after_tool, tokens.len()],
                    tokens,
                });
            }
        }
        publications
    }

    /// Generates the trace.
    pub fn generate(&self) -> Trace {
        let config = &self.config;
        let publications = self.publications();
        let total_weight: u64 = config.archetypes.iter().map(|a| a.weight as u64).sum();

        let mut arrivals: DetRng = rng::substream(config.seed, "arrivals");
        let mut now = 0.0_f64;
        let mut requests = Vec::new();
        for session in 0..config.sessions {
            // Exponential inter-arrival gap, by inverse-CDF sampling.
            let u: f64 = arrivals.gen_range(f64::EPSILON..1.0);
            now += -u.ln() * config.mean_interarrival_ticks;
            let mut rng: DetRng = rng::substream(config.seed, &format!("session-{session}"));

            // Weighted archetype draw.
            let mut pick = rng.gen_range(0..total_weight);
            let archetype_index = config
                .archetypes
                .iter()
                .position(|a| {
                    if pick < a.weight as u64 {
                        true
                    } else {
                        pick -= a.weight as u64;
                        false
                    }
                })
                .expect("weights sum to total_weight");
            let archetype = &config.archetypes[archetype_index];

            // The session's hierarchy leaf.
            let leaf = rng.gen_range(0..config.hierarchy.leaves());
            let prefix = &publications[leaf].tokens;

            let turns = draw(&mut rng, archetype.turns);
            let mut history: Vec<usize> = prefix.clone();
            let mut arrival = now.ceil() as u64;
            for turn in 0..turns {
                let fresh = draw(&mut rng, archetype.prompt_tokens);
                let decode_len = draw(&mut rng, archetype.decode_tokens);
                let mut turn_rng: DetRng =
                    rng::substream(config.seed, &format!("turn-{session}-{turn}"));
                history.extend((0..fresh).map(|_| {
                    if turn_rng.gen::<f32>() < 0.1 {
                        turn_rng.gen_range(config.vocab / 2..config.vocab)
                    } else {
                        rng::zipf_index(&mut turn_rng, config.vocab / 2, 1.1)
                    }
                }));
                requests.push(TraceRequest {
                    session,
                    turn,
                    archetype: archetype_index,
                    arrival_tick: arrival,
                    prompt: history.clone(),
                    decode_len,
                });
                // Open-loop follow-up: the next turn arrives after an
                // estimated service time (one admission tick + one tick per
                // decode token) plus think time, fixed at generation so the
                // trace stays pure data.
                let think = draw_ticks(&mut rng, archetype.think_ticks);
                arrival += 1 + decode_len as u64 + think;
            }
        }
        requests.sort_by_key(|r| (r.arrival_tick, r.session, r.turn));
        let horizon_ticks = requests.iter().map(|r| r.arrival_tick).max().unwrap_or(0);
        Trace {
            requests,
            publications,
            horizon_ticks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic_and_sorted() {
        let a = TraceEngine::new(TraceConfig::poisson(200, 1.5)).generate();
        let b = TraceEngine::new(TraceConfig::poisson(200, 1.5)).generate();
        assert_eq!(a, b);
        assert!(a
            .requests
            .windows(2)
            .all(|w| w[0].arrival_tick <= w[1].arrival_tick));
        let c = TraceEngine::new(TraceConfig::poisson(200, 1.5).with_seed(99)).generate();
        assert_ne!(a.requests, c.requests, "seeds decorrelate traces");
    }

    #[test]
    fn every_prompt_starts_with_its_hierarchy_leaf() {
        let config = TraceConfig::poisson(64, 2.0);
        let hierarchy = config.hierarchy;
        let trace = TraceEngine::new(config).generate();
        let depth = hierarchy.system_tokens + hierarchy.tool_tokens + hierarchy.user_tokens;
        assert_eq!(trace.publications.len(), hierarchy.leaves());
        for publication in &trace.publications {
            assert_eq!(
                publication.boundaries,
                vec![
                    hierarchy.system_tokens,
                    hierarchy.system_tokens + hierarchy.tool_tokens,
                    depth
                ]
            );
            assert_eq!(publication.tokens.len(), depth);
        }
        for request in &trace.requests {
            assert!(request.prompt.len() > depth);
            let leaf = trace
                .publications
                .iter()
                .find(|p| request.prompt.starts_with(&p.tokens));
            assert!(leaf.is_some(), "prompt must start with a hierarchy leaf");
        }
        // Sibling leaves share the system boundary: one pass per leaf, but
        // the first two levels deduplicate at publication time.
        let first = &trace.publications[0];
        let sibling = &trace.publications[1];
        assert_eq!(
            first.tokens[..hierarchy.system_tokens],
            sibling.tokens[..hierarchy.system_tokens]
        );
    }

    #[test]
    fn multi_turn_requests_grow_their_history_and_respect_think_time() {
        let config = TraceConfig::poisson(40, 1.0).with_archetypes(vec![SessionArchetype::new(
            "conversation",
            1,
            (3, 5),
        )
        .with_decode_tokens((2, 4))
        .with_turns((3, 3), (5, 9))]);
        let trace = TraceEngine::new(config).generate();
        let mut by_session: std::collections::BTreeMap<usize, Vec<&TraceRequest>> =
            Default::default();
        for request in &trace.requests {
            by_session.entry(request.session).or_default().push(request);
        }
        for turns in by_session.values() {
            assert_eq!(turns.len(), 3);
            for pair in turns.windows(2) {
                let (earlier, later) = (pair[0], pair[1]);
                assert_eq!(later.turn, earlier.turn + 1);
                assert!(
                    later.prompt.starts_with(&earlier.prompt),
                    "each turn extends the conversation history"
                );
                // Service estimate (1 + decode) plus at least min think time.
                assert!(
                    later.arrival_tick >= earlier.arrival_tick + 1 + earlier.decode_len as u64 + 5
                );
            }
        }
    }
}
