//! Deterministic fault injection and the recovery vocabulary of the
//! chaos-hardened scheduler.
//!
//! The serving stack promises bit-identical token streams for every worker
//! count.  This module extends that promise to a *failing* machine: a seeded
//! [`ChaosPlan`] injects worker-thread panics mid-tick, transient
//! tier-migration I/O errors and transient
//! [`CapacityLedger`](kelle_edram::CapacityLedger) reservation failures, and
//! the scheduler recovers from all three such that every surviving session's
//! stream — tokens, probability bits, fault statistics — is bit-identical to
//! a chaos-free run.
//!
//! Determinism is the whole design:
//!
//! * **Worker panics** are drawn from a hash of `(seed, tick, session,
//!   attempt)`, so the *same* decode steps fail regardless of executor,
//!   worker count or completion order.  The panic is injected *after* the
//!   step computes (the session is mutated and then lost), which makes the
//!   checkpoint/replay path do real work rather than re-running an untouched
//!   session.
//! * **Migration and ledger faults** are drawn from per-stream counters.
//!   Both are only ever consulted on the coordinator thread, whose decision
//!   sequence is identical for every worker count, so the draws are too.
//!
//! Recovery leans on the scheduler's per-tick commit protocol and happens
//! where the session lives: the executor shard snapshots each session into a
//! cheap [`Checkpoint`] at the committed tick boundary it is about to leave,
//! restores it in place when the step panics, the coordinator re-issues the
//! step with a bounded retry budget, and exhaustion surfaces as the typed
//! [`ServeError::WorkerLost`] instead of a raw `resume_unwind`.

use std::fmt;

use kelle_edram::MemoryTier;
use serde::{Deserialize, Serialize};

use crate::session::Session;

/// Configuration of the deterministic fault-injection plan.
///
/// Rates are expressed in *per-mille* (0–1000) so the config stays `Copy`,
/// `Eq` and exactly serializable.  A rate of `0` disables that fault class;
/// an all-zero config (`ChaosConfig::default()`) disables chaos entirely and
/// the scheduler takes no checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Seed of the fault plan; different seeds fail different steps.
    pub seed: u64,
    /// Per-mille probability that a decode step's worker panics mid-tick.
    pub worker_panic_per_mille: u32,
    /// Per-mille probability that a tier-migration attempt fails with a
    /// transient I/O error (the KV stays on its source tier and the attempt
    /// is charged to [`TieringMetrics`](crate::tier::TieringMetrics)).
    pub migration_fault_per_mille: u32,
    /// Per-mille probability that a capacity-ledger reservation transiently
    /// fails during admission (the candidate retries on a later tick).
    pub ledger_blip_per_mille: u32,
    /// How many times a panicked session step is replayed from checkpoint
    /// before the request is abandoned as [`ServeError::WorkerLost`].
    pub max_retries: u32,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            worker_panic_per_mille: 0,
            migration_fault_per_mille: 0,
            ledger_blip_per_mille: 0,
            max_retries: 3,
        }
    }
}

impl ChaosConfig {
    /// Overrides the plan seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the worker-panic rate in per-mille (builder style).
    pub fn with_worker_panics(mut self, per_mille: u32) -> Self {
        self.worker_panic_per_mille = per_mille.min(1000);
        self
    }

    /// Overrides the migration-fault rate in per-mille (builder style).
    pub fn with_migration_faults(mut self, per_mille: u32) -> Self {
        self.migration_fault_per_mille = per_mille.min(1000);
        self
    }

    /// Derives the migration-fault rate from an NVMe device model's
    /// [`transient_error_rate`](kelle_edram::NvmeSpec::transient_error_rate)
    /// (builder style).
    pub fn with_nvme_error_model(self, nvme: &kelle_edram::NvmeSpec) -> Self {
        self.with_migration_faults((nvme.transient_error_rate * 1000.0).round() as u32)
    }

    /// Overrides the ledger-blip rate in per-mille (builder style).
    pub fn with_ledger_blips(mut self, per_mille: u32) -> Self {
        self.ledger_blip_per_mille = per_mille.min(1000);
        self
    }

    /// Overrides the replay budget (builder style).
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Whether any fault class is enabled.
    pub fn enabled(&self) -> bool {
        self.worker_panic_per_mille > 0
            || self.migration_fault_per_mille > 0
            || self.ledger_blip_per_mille > 0
    }
}

/// A source of transient tier-migration failures.
///
/// [`TierManager`](crate::tier::TierManager) consults this before every
/// migration attempt; a `true` return means the transfer failed mid-flight
/// (its cost is charged, no bytes move) and the manager retries a bounded
/// number of times before leaving the KV on its source tier.
pub trait MigrationFaults {
    /// Draws the fate of one migration attempt of `bytes` from `from` to
    /// `to`.  Implementations may be stateful (each call consumes a draw).
    fn migration_fails(&mut self, from: MemoryTier, to: MemoryTier, bytes: u64) -> bool;
}

/// The instantiated fault plan: a [`ChaosConfig`] plus the draw state of the
/// counter-based fault streams.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    config: ChaosConfig,
    migration_draws: u64,
    ledger_draws: u64,
}

impl ChaosPlan {
    /// Instantiates the plan for a config.
    pub fn new(config: ChaosConfig) -> Self {
        ChaosPlan {
            config,
            migration_draws: 0,
            ledger_draws: 0,
        }
    }

    /// The plan's configuration.
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }

    /// Whether execution `attempt` of session `index`'s decode step on tick
    /// `tick` is sabotaged.
    ///
    /// Pure in its arguments: the draw is a hash of the full coordinate, not
    /// a counter, so injection is independent of executor, worker count and
    /// task completion order.
    pub fn worker_panic(&self, tick: u64, index: usize, attempt: u32) -> bool {
        hits(
            self.config.seed,
            1,
            tick,
            index as u64,
            attempt as u64,
            self.config.worker_panic_per_mille,
        )
    }

    /// Draws the fate of the next capacity-ledger reservation.
    pub(crate) fn ledger_blip(&mut self) -> bool {
        let draw = self.ledger_draws;
        self.ledger_draws += 1;
        hits(
            self.config.seed,
            3,
            draw,
            0,
            0,
            self.config.ledger_blip_per_mille,
        )
    }
}

impl MigrationFaults for ChaosPlan {
    fn migration_fails(&mut self, _from: MemoryTier, _to: MemoryTier, _bytes: u64) -> bool {
        let draw = self.migration_draws;
        self.migration_draws += 1;
        hits(
            self.config.seed,
            2,
            draw,
            0,
            0,
            self.config.migration_fault_per_mille,
        )
    }
}

/// SplitMix64 finalizer (same mixing constants as `kelle_tensor::rng`).
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One deterministic per-mille draw on stream `stream` at coordinate
/// `(a, b, c)`.
fn hits(seed: u64, stream: u64, a: u64, b: u64, c: u64, per_mille: u32) -> bool {
    if per_mille == 0 {
        return false;
    }
    let mut h = splitmix(seed ^ stream.wrapping_mul(0xc2b2_ae3d_27d4_eb4f));
    h = splitmix(h ^ a);
    h = splitmix(h ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    h = splitmix(h ^ c);
    (h % 1000) < per_mille as u64
}

/// Counters describing the faults a chaos-enabled batch absorbed and the
/// recovery work it performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosMetrics {
    /// Worker panics the plan injected (including those hit on replays).
    pub injected_panics: u64,
    /// Session steps re-executed from checkpoint after a worker loss.
    pub replayed_steps: u64,
    /// Modelled backoff ticks spent between replays.
    pub backoff_ticks: u64,
    /// Capacity-ledger reservations that transiently failed during admission.
    pub ledger_blips: u64,
    /// Session checkpoints captured at committed tick boundaries.
    pub checkpoints_taken: u64,
    /// Sessions restored from a checkpoint.
    pub restored_sessions: u64,
    /// Requests shed for deadline or queue-timeout reasons.
    pub shed_requests: u64,
    /// Requests cancelled mid-stream via `cancel()`.
    pub cancelled_requests: u64,
    /// Waiting requests shed because the scheduler drained.
    pub drained_requests: u64,
    /// Requests abandoned after the replay budget was exhausted.
    pub lost_requests: u64,
}

/// Why a request was shed before completing its full decode budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShedReason {
    /// The request's end-to-end deadline elapsed while it was active; it is
    /// finalized with whatever tokens it produced.
    DeadlineExceeded,
    /// The request waited in the admission queue longer than its queue
    /// timeout and was never admitted.
    QueueTimeout,
    /// The request was cancelled via
    /// [`BatchScheduler::cancel`](crate::scheduler::BatchScheduler::cancel).
    Cancelled,
    /// The request was still waiting when the scheduler drained.
    Drained,
    /// The request's worker was lost and the replay budget was exhausted.
    WorkerLost,
}

impl ShedReason {
    /// Stable lowercase name for reports and tables.
    pub fn name(&self) -> &'static str {
        match self {
            ShedReason::DeadlineExceeded => "deadline-exceeded",
            ShedReason::QueueTimeout => "queue-timeout",
            ShedReason::Cancelled => "cancelled",
            ShedReason::Drained => "drained",
            ShedReason::WorkerLost => "worker-lost",
        }
    }
}

/// A cheap snapshot of a session at a committed tick boundary.
///
/// Captured on the executor shard the session lives on, before every decode
/// step taken while chaos is enabled; when that step panics, the checkpoint
/// is re-hydrated into a fresh [`Session`] in the lost one's place and the
/// step replays deterministically (same state, same RNG stream, same token).
pub struct Checkpoint<'e> {
    session: Session<'e>,
}

impl<'e> Checkpoint<'e> {
    /// Snapshots `session`, which must sit at a committed tick boundary.
    pub fn capture(session: &Session<'e>) -> Self {
        Checkpoint {
            session: session.fork(),
        }
    }

    /// Re-hydrates the checkpoint into a live session (the checkpoint
    /// remains usable for further replays).
    pub fn restore(&self) -> Session<'e> {
        self.session.fork()
    }
}

impl fmt::Debug for Checkpoint<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Checkpoint")
            .field("position", &self.session.position())
            .finish_non_exhaustive()
    }
}

/// Infrastructure failures surfaced by
/// [`KelleEngine::serve`](crate::engine::KelleEngine::serve),
/// [`BatchScheduler::run_with`](crate::scheduler::BatchScheduler::run_with)
/// and [`try_step_with`](crate::scheduler::BatchScheduler::try_step_with).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A worker thread carrying a session's decode step panicked and the
    /// bounded replay budget could not recover it.  The request has been
    /// finalized with its partial output (shed reason
    /// [`ShedReason::WorkerLost`]); the scheduler itself remains consistent
    /// and drainable.
    WorkerLost {
        /// Index of the first request abandoned this tick.
        request: usize,
        /// Total executions attempted (1 initial + replays).
        attempts: u32,
        /// The panic payload of the last failed attempt.
        message: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::WorkerLost {
                request,
                attempts,
                message,
            } => write!(
                f,
                "worker lost serving request {request} after {attempts} attempt(s): {message}"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_disabled() {
        let config = ChaosConfig::default();
        assert!(!config.enabled());
        assert_eq!(config.max_retries, 3);
        let plan = ChaosPlan::new(config);
        for tick in 0..64 {
            assert!(!plan.worker_panic(tick, 0, 0));
        }
    }

    #[test]
    fn panic_draws_are_pure_in_their_coordinates() {
        let plan = ChaosPlan::new(ChaosConfig::default().with_seed(7).with_worker_panics(200));
        let first: Vec<bool> = (0..256).map(|t| plan.worker_panic(t, 3, 0)).collect();
        let second: Vec<bool> = (0..256).map(|t| plan.worker_panic(t, 3, 0)).collect();
        assert_eq!(first, second);
        let hits = first.iter().filter(|&&h| h).count();
        assert!(hits > 0, "a 20% rate must hit within 256 draws");
        assert!(hits < 256, "a 20% rate must miss within 256 draws");
    }

    #[test]
    fn retry_attempts_draw_independently() {
        // A step that fails at attempt 0 must not be doomed to fail forever:
        // the attempt number is part of the draw coordinate.
        let plan = ChaosPlan::new(ChaosConfig::default().with_seed(11).with_worker_panics(500));
        let mut recovered = false;
        for tick in 0..128 {
            if plan.worker_panic(tick, 0, 0) && !plan.worker_panic(tick, 0, 1) {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "some failed step recovers on its first replay");
    }

    #[test]
    fn seeds_decorrelate_plans() {
        let a = ChaosPlan::new(ChaosConfig::default().with_seed(1).with_worker_panics(300));
        let b = ChaosPlan::new(ChaosConfig::default().with_seed(2).with_worker_panics(300));
        let draws_a: Vec<bool> = (0..256).map(|t| a.worker_panic(t, 0, 0)).collect();
        let draws_b: Vec<bool> = (0..256).map(|t| b.worker_panic(t, 0, 0)).collect();
        assert_ne!(draws_a, draws_b);
    }

    #[test]
    fn counter_streams_are_reproducible_and_independent() {
        let config = ChaosConfig::default()
            .with_seed(23)
            .with_migration_faults(250)
            .with_ledger_blips(250);
        let mut a = ChaosPlan::new(config);
        let mut b = ChaosPlan::new(config);
        let migrations: Vec<bool> = (0..128)
            .map(|_| a.migration_fails(MemoryTier::Edram, MemoryTier::Dram, 64))
            .collect();
        let blips: Vec<bool> = (0..128).map(|_| a.ledger_blip()).collect();
        let migrations_b: Vec<bool> = (0..128)
            .map(|_| b.migration_fails(MemoryTier::Edram, MemoryTier::Dram, 64))
            .collect();
        let blips_b: Vec<bool> = (0..128).map(|_| b.ledger_blip()).collect();
        assert_eq!(migrations, migrations_b);
        assert_eq!(blips, blips_b);
        // Streams 2 and 3 are decorrelated even though both are counters.
        assert_ne!(migrations, blips);
        assert!(migrations.iter().any(|&f| f));
        assert!(migrations.iter().any(|&f| !f));
    }

    #[test]
    fn nvme_error_model_scales_to_per_mille() {
        let nvme = kelle_edram::NvmeSpec::edge_m2_256gb().with_transient_error_rate(0.05);
        let config = ChaosConfig::default().with_nvme_error_model(&nvme);
        assert_eq!(config.migration_fault_per_mille, 50);
    }

    #[test]
    fn rates_clamp_to_per_mille() {
        let config = ChaosConfig::default()
            .with_worker_panics(5000)
            .with_migration_faults(5000)
            .with_ledger_blips(5000);
        assert_eq!(config.worker_panic_per_mille, 1000);
        assert_eq!(config.migration_fault_per_mille, 1000);
        assert_eq!(config.ledger_blip_per_mille, 1000);
    }

    #[test]
    fn shed_reasons_have_stable_names() {
        assert_eq!(ShedReason::DeadlineExceeded.name(), "deadline-exceeded");
        assert_eq!(ShedReason::WorkerLost.name(), "worker-lost");
    }

    #[test]
    fn serve_error_displays_context() {
        let err = ServeError::WorkerLost {
            request: 4,
            attempts: 3,
            message: "chaos: injected worker panic".into(),
        };
        let text = err.to_string();
        assert!(text.contains("request 4"));
        assert!(text.contains("3 attempt(s)"));
    }
}
