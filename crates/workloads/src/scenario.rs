//! Multi-session serving scenarios.
//!
//! The single-prompt generator ([`crate::generator`]) models one request;
//! serving experiments additionally need *fleets* of concurrent sessions
//! with realistic cross-session structure.  The first such scenario is the
//! shared-system-prompt fleet: edge chatbots front every conversation with
//! the same instruction preamble, so N concurrent sessions share one long
//! common prefix and differ only in their (much shorter) user turns — the
//! workload cross-session prefix sharing exists for.

use kelle_tensor::rng::{self, DetRng};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A deterministic fleet of sessions sharing one system prompt.
///
/// Session `i`'s first prompt is `system_prompt() ++ user_suffix(i)`.  The
/// system prompt is drawn once from the scenario seed; the per-session user
/// suffixes come from decorrelated substreams, so two scenarios with the
/// same parameters are identical token-for-token.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
    pub vocab: usize,
    /// Scenario seed.
    pub seed: u64,
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

    /// Overrides the vocabulary (builder style).
    pub fn with_vocab(mut self, vocab: usize) -> Self {
        self.vocab = vocab;
        self.validate();
        self
    }

    /// Overrides the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
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
    pub fn user_suffix(&self, session: usize) -> Vec<usize> {
        self.stream(&format!("user-{session}"), self.user_tokens)
    }

    /// Session `i`'s full first prompt: system prompt + user suffix.
    pub fn session_prompt(&self, session: usize) -> Vec<usize> {
        let mut prompt = self.system_prompt();
        prompt.extend(self.user_suffix(session));
        prompt
    }

    /// All session prompts, in session order.
    pub fn prompts(&self) -> Vec<Vec<usize>> {
        (0..self.sessions).map(|i| self.session_prompt(i)).collect()
    }

    /// Total prompt tokens a sharing-oblivious stack pre-fills.
    pub fn total_prompt_tokens(&self) -> usize {
        self.sessions * (self.system_tokens + self.user_tokens)
    }

    /// Prompt tokens that are redundant recomputation without sharing (the
    /// system prompt re-pre-filled by every session beyond the first).
    pub fn redundant_prompt_tokens(&self) -> usize {
        (self.sessions - 1) * self.system_tokens
    }
}

/// A multi-worker serving sweep over a [`SharedPromptScenario`] fleet.
///
/// The threaded serving front-end (`kelle::parallel`) promises bit-identical
/// token streams for every worker count; what changes is wall-clock decode
/// throughput.  This scenario pins the fleet *and* the worker counts to
/// sweep, so the `bench_serving` harness, the determinism gate and local
/// experiments all measure the same shape.  Like every scenario in this
/// crate it is pure data — deterministic in its seed and independent of the
/// serving stack.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParallelScenario {
    /// The session fleet every worker count serves.
    pub fleet: SharedPromptScenario,
    /// Worker counts to sweep, in measurement order.
    pub worker_counts: Vec<usize>,
}

impl ParallelScenario {
    /// A sweep of `worker_counts` over the given fleet.
    ///
    /// # Panics
    ///
    /// Panics if `worker_counts` is empty or contains a zero.
    pub fn new(fleet: SharedPromptScenario, worker_counts: Vec<usize>) -> Self {
        let scenario = ParallelScenario {
            fleet,
            worker_counts,
        };
        scenario.validate();
        scenario
    }

    /// The acceptance-shape sweep: the 8-session × 256-token shared-prompt
    /// fleet served at 1, 2 and 4 workers.
    pub fn edge_fleet() -> Self {
        ParallelScenario::new(
            SharedPromptScenario::new(8, 256, 16).with_decode_len(32),
            vec![1, 2, 4],
        )
    }

    /// Overrides the worker counts (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `worker_counts` is empty or contains a zero.
    pub fn with_worker_counts(mut self, worker_counts: Vec<usize>) -> Self {
        self.worker_counts = worker_counts;
        self.validate();
        self
    }

    fn validate(&self) {
        assert!(
            !self.worker_counts.is_empty(),
            "sweep needs at least one worker count"
        );
        assert!(
            self.worker_counts.iter().all(|&w| w > 0),
            "worker counts must be non-zero"
        );
    }

    /// Total tokens the fleet decodes (the numerator of aggregate decode
    /// throughput).
    pub fn total_decode_tokens(&self) -> usize {
        self.fleet.sessions * self.fleet.decode_len
    }
}

/// A long-lived session fleet for the async serving front-end
/// (`kelle::front`): short prompts, long decode tails, served through the
/// submit/poll API.
///
/// The shape is the opposite of [`ParallelScenario::edge_fleet`]'s
/// prefill-heavy burst: here almost all the work is decode ticks on
/// sessions that stay resident for a long time — the shape that makes
/// per-tick executor traffic, rather than admission, the cost that counts,
/// and the reason sessions live on their worker shard instead of moving
/// through a queue every tick.  Pure data, deterministic in its seed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrontScenario {
    /// The long-lived session fleet.
    pub fleet: SharedPromptScenario,
    /// Worker counts to sweep, in measurement order.
    pub worker_counts: Vec<usize>,
    /// Per-stream token-buffer bound the front applies while serving
    /// (`None` = unbounded, never pauses).
    pub stream_capacity: Option<usize>,
}

impl FrontScenario {
    /// A front-end sweep of `worker_counts` over the given fleet.
    ///
    /// # Panics
    ///
    /// Panics if `worker_counts` is empty or contains a zero.
    pub fn new(fleet: SharedPromptScenario, worker_counts: Vec<usize>) -> Self {
        let scenario = FrontScenario {
            fleet,
            worker_counts,
            stream_capacity: None,
        };
        scenario.validate();
        scenario
    }

    /// The acceptance-shape fleet: 16 long-lived sessions (64-token shared
    /// system prompt, 8-token user turns) each decoding 96 tokens, served
    /// at 1, 2 and 4 workers.  Decode dominates prefill ~6:1, the shape
    /// pinned residency exists for.
    pub fn long_lived_fleet() -> Self {
        FrontScenario::new(
            SharedPromptScenario::new(16, 64, 8).with_decode_len(96),
            vec![1, 2, 4],
        )
    }

    /// Overrides the worker counts (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `worker_counts` is empty or contains a zero.
    pub fn with_worker_counts(mut self, worker_counts: Vec<usize>) -> Self {
        self.worker_counts = worker_counts;
        self.validate();
        self
    }

    /// Bounds each per-session token buffer (builder style).
    pub fn with_stream_capacity(mut self, capacity: usize) -> Self {
        self.stream_capacity = Some(capacity);
        self
    }

    fn validate(&self) {
        assert!(
            !self.worker_counts.is_empty(),
            "sweep needs at least one worker count"
        );
        assert!(
            self.worker_counts.iter().all(|&w| w > 0),
            "worker counts must be non-zero"
        );
    }

    /// Total tokens the fleet decodes (the numerator of aggregate decode
    /// throughput).
    pub fn total_decode_tokens(&self) -> usize {
        self.fleet.sessions * self.fleet.decode_len
    }
}

/// A tiered-memory pressure scenario: a fleet whose total KV demand
/// deliberately exceeds the on-chip budget.
///
/// The tier budgets are expressed as *percentages of the fleet's total KV
/// demand* rather than absolute bytes, because the byte demand depends on
/// the serving stack's model shape and cache policy — which this crate, being
/// pure data, knows nothing about.  The serving-side harness computes the
/// demand (`engine.kv_footprint_bytes` per prompt+decode) and scales the
/// percentages into a concrete `TierBudgets`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TieringScenario {
    /// The session fleet driving the memory pressure.
    pub fleet: SharedPromptScenario,
    /// eDRAM tier budget as a percentage of the fleet's total KV demand
    /// (< 100 forces overflow into DRAM/NVMe).
    pub edram_percent_of_demand: u32,
    /// DRAM tier budget as a percentage of the fleet's total KV demand.
    pub dram_percent_of_demand: u32,
}

impl TieringScenario {
    /// A scenario over the given fleet with the tier budgets expressed as
    /// percentages of its total KV demand.
    ///
    /// # Panics
    ///
    /// Panics if either percentage is zero.
    pub fn new(fleet: SharedPromptScenario, edram_percent: u32, dram_percent: u32) -> Self {
        let scenario = TieringScenario {
            fleet,
            edram_percent_of_demand: edram_percent,
            dram_percent_of_demand: dram_percent,
        };
        scenario.validate();
        scenario
    }

    /// The acceptance-shape pressure fleet: the 8-session shared-prompt
    /// fleet with an eDRAM tier sized to 40 % of its total KV demand and a
    /// DRAM tier sized to 50 % — so the hierarchy's settled state *must*
    /// keep bytes in DRAM (and, transiently, NVMe) to hold the fleet.
    pub fn edge_pressure() -> Self {
        TieringScenario::new(
            SharedPromptScenario::new(8, 256, 16).with_decode_len(32),
            40,
            50,
        )
    }

    fn validate(&self) {
        assert!(
            self.edram_percent_of_demand > 0,
            "eDRAM percentage must be non-zero"
        );
        assert!(
            self.dram_percent_of_demand > 0,
            "DRAM percentage must be non-zero"
        );
    }

    /// Scales a total KV demand (bytes) into this scenario's eDRAM budget.
    pub fn edram_budget_bytes(&self, total_demand_bytes: u64) -> u64 {
        percent_of(total_demand_bytes, self.edram_percent_of_demand)
    }

    /// Scales a total KV demand (bytes) into this scenario's DRAM budget.
    pub fn dram_budget_bytes(&self, total_demand_bytes: u64) -> u64 {
        percent_of(total_demand_bytes, self.dram_percent_of_demand)
    }
}

/// A chaos-hardened serving scenario: a fleet served while a fixed fraction
/// of decode ticks lose their worker and a fixed fraction of tier
/// migrations fail transiently.
///
/// Rates are per-mille (0–1000) so they map directly onto the serving
/// stack's deterministic fault-injection plan; like every scenario in this
/// crate it is pure data — the integration suite and the `bench_chaos`
/// harness turn it into a concrete chaos configuration.  The recovery
/// invariant the serving stack promises (and the suite asserts) is that
/// every surviving session's stream is bit-identical to a fault-free run of
/// the same fleet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosScenario {
    /// The session fleet served under fault injection.
    pub fleet: SharedPromptScenario,
    /// Per-mille of per-session decode steps whose worker panics mid-tick.
    pub worker_loss_per_mille: u32,
    /// Per-mille of tier-migration transfers that fail transiently.
    pub migration_fault_per_mille: u32,
    /// Per-mille of admission reservations that fail transiently.
    pub ledger_blip_per_mille: u32,
    /// Seed of the fault-injection plan (decorrelated from the fleet seed).
    pub chaos_seed: u64,
}

impl ChaosScenario {
    /// A scenario over the given fleet with the given fault rates.
    ///
    /// # Panics
    ///
    /// Panics if every rate is zero (use the plain fleet instead) or any
    /// rate exceeds 1000 ‰.
    pub fn new(fleet: SharedPromptScenario, worker_loss: u32, migration_faults: u32) -> Self {
        let scenario = ChaosScenario {
            fleet,
            worker_loss_per_mille: worker_loss,
            migration_fault_per_mille: migration_faults,
            ledger_blip_per_mille: 0,
            chaos_seed: 41,
        };
        scenario.validate();
        scenario
    }

    /// The acceptance-shape chaos fleet: the 8-session shared-prompt fleet
    /// with 5 % of decode steps losing their worker and 10 % of migrations
    /// failing transiently.
    pub fn edge_chaos() -> Self {
        ChaosScenario::new(
            SharedPromptScenario::new(8, 256, 16).with_decode_len(32),
            50,
            100,
        )
    }

    /// Overrides the admission-blip rate (builder style).
    pub fn with_ledger_blips(mut self, per_mille: u32) -> Self {
        self.ledger_blip_per_mille = per_mille;
        self.validate();
        self
    }

    /// Overrides the chaos seed (builder style).
    pub fn with_chaos_seed(mut self, seed: u64) -> Self {
        self.chaos_seed = seed;
        self
    }

    fn validate(&self) {
        let rates = [
            self.worker_loss_per_mille,
            self.migration_fault_per_mille,
            self.ledger_blip_per_mille,
        ];
        assert!(
            rates.iter().any(|&r| r > 0),
            "a chaos scenario needs at least one non-zero fault rate"
        );
        assert!(
            rates.iter().all(|&r| r <= 1000),
            "fault rates are per-mille and cannot exceed 1000"
        );
    }

    /// Expected worker losses across the fleet's decode steps (the fault
    /// budget the recovery machinery must absorb).
    pub fn expected_worker_losses(&self) -> f64 {
        (self.fleet.sessions * self.fleet.decode_len) as f64
            * (self.worker_loss_per_mille as f64 / 1000.0)
    }
}

/// `percent` % of `bytes`, saturating, with a 1-byte floor so a tiny demand
/// never degenerates into a zero (hence panicking) tier budget.
fn percent_of(bytes: u64, percent: u32) -> u64 {
    ((bytes as u128 * percent as u128) / 100)
        .min(u64::MAX as u128)
        .max(1) as u64
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
        let a = SharedPromptScenario::new(3, 16, 4).with_seed(9);
        let b = SharedPromptScenario::new(3, 16, 4).with_seed(9);
        assert_eq!(a.prompts(), b.prompts());
        let c = SharedPromptScenario::new(3, 16, 4).with_seed(10);
        assert_ne!(a.system_prompt(), c.system_prompt());
    }

    #[test]
    fn token_accounting() {
        let scenario = SharedPromptScenario::new(8, 256, 16);
        assert_eq!(scenario.total_prompt_tokens(), 8 * 272);
        assert_eq!(scenario.redundant_prompt_tokens(), 7 * 256);
    }

    #[test]
    #[should_panic(expected = "at least one session")]
    fn zero_sessions_panics() {
        SharedPromptScenario::new(0, 8, 2);
    }

    #[test]
    fn parallel_scenario_pins_fleet_and_worker_counts() {
        let sweep = ParallelScenario::edge_fleet();
        assert_eq!(sweep.fleet.sessions, 8);
        assert_eq!(sweep.fleet.system_tokens, 256);
        assert_eq!(sweep.worker_counts, vec![1, 2, 4]);
        assert_eq!(sweep.total_decode_tokens(), 8 * 32);
        let wide = sweep.with_worker_counts(vec![1, 8]);
        assert_eq!(wide.worker_counts, vec![1, 8]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_worker_count_panics() {
        ParallelScenario::new(SharedPromptScenario::new(2, 8, 2), vec![1, 0]);
    }

    #[test]
    fn front_scenario_is_decode_dominated() {
        let scenario = FrontScenario::long_lived_fleet();
        assert_eq!(scenario.fleet.sessions, 16);
        assert_eq!(scenario.worker_counts, vec![1, 2, 4]);
        assert_eq!(scenario.stream_capacity, None);
        // Decode work outweighs prefill work: that is the long-lived shape.
        assert!(scenario.total_decode_tokens() > scenario.fleet.total_prompt_tokens());
        let bounded = scenario.with_stream_capacity(4);
        assert_eq!(bounded.stream_capacity, Some(4));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_front_worker_count_panics() {
        FrontScenario::new(SharedPromptScenario::new(2, 8, 2), vec![0]);
    }

    #[test]
    fn tiering_scenario_scales_budgets_from_demand() {
        let scenario = TieringScenario::edge_pressure();
        assert_eq!(scenario.edram_percent_of_demand, 40);
        assert_eq!(scenario.edram_budget_bytes(1000), 400);
        assert_eq!(scenario.dram_budget_bytes(1000), 500);
        // The floor keeps degenerate demands from producing a zero budget.
        assert_eq!(scenario.edram_budget_bytes(0), 1);
    }

    #[test]
    #[should_panic(expected = "eDRAM percentage")]
    fn zero_edram_percent_panics() {
        TieringScenario::new(SharedPromptScenario::new(2, 8, 2), 0, 50);
    }

    #[test]
    fn chaos_scenario_pins_rates_and_fault_budget() {
        let scenario = ChaosScenario::edge_chaos();
        assert_eq!(scenario.worker_loss_per_mille, 50);
        assert_eq!(scenario.migration_fault_per_mille, 100);
        assert_eq!(scenario.ledger_blip_per_mille, 0);
        // 8 sessions x 32 decode steps at 5% ≈ 12.8 expected losses.
        let expected = scenario.expected_worker_losses();
        assert!((expected - 12.8).abs() < 1e-9);
        let blippy = scenario.clone().with_ledger_blips(75).with_chaos_seed(7);
        assert_eq!(blippy.ledger_blip_per_mille, 75);
        assert_eq!(blippy.chaos_seed, 7);
        assert_eq!(blippy.fleet, scenario.fleet);
    }

    #[test]
    #[should_panic(expected = "non-zero fault rate")]
    fn all_zero_chaos_rates_panic() {
        ChaosScenario::new(SharedPromptScenario::new(2, 8, 2), 0, 0);
    }

    #[test]
    #[should_panic(expected = "cannot exceed 1000")]
    fn over_unit_chaos_rate_panics() {
        ChaosScenario::new(SharedPromptScenario::new(2, 8, 2), 1001, 0);
    }
}
