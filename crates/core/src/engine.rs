//! The Kelle serving engine — the API a downstream user consumes.
//!
//! [`KelleEngine`] binds together the surrogate model, a pluggable KV-cache
//! policy (via the [`CachePolicy`] registry), the 2DRP retention-fault model
//! and the hardware platform model.  Construction goes through
//! [`EngineBuilder`]; serving goes through three entry points of increasing
//! generality:
//!
//! * [`KelleEngine::serve_one`] — one blocking request (a thin wrapper over a
//!   one-shot [`Session`]);
//! * [`KelleEngine::open_session`] — a persistent session whose KV cache
//!   survives across turns, so multi-turn chat pre-fills only each turn's new
//!   tokens;
//! * [`KelleEngine::serve`] — the batch entry point: a continuous-batching
//!   scheduler that interleaves decode steps across many sessions, with every
//!   execution axis selected through [`ServeOptions`] — shared-capacity
//!   arbitration and admission policy ([`SchedulerConfig`]), inline vs.
//!   worker-pool execution ([`ServeOptions::parallel`]) and token streaming
//!   ([`ServeOptions::streaming`]).  Token streams are bit-identical across
//!   every axis combination; only cost, ordering and metrics change.
//!
//! (The non-blocking submit/poll front-end, [`KelleEngine::front`], lives in
//! [`crate::front`].)

use crate::chaos::ServeError;
use crate::parallel::{InlineExecutor, StepExecutor, WorkerPool};
use crate::prefix::{PrefixHit, PrefixKey, PrefixSharingConfig, PrefixStore, PrefixStoreStats};
use crate::scheduler::{BatchOutcome, BatchScheduler, SchedulerConfig, ServeEvent};
use crate::session::{ServeRequest, Session, TurnOutcome};
use kelle_arch::{Platform, PlatformKind, PlatformReport};
use kelle_cache::{CacheBudget, CachePolicy};
use kelle_edram::{RefreshPolicy, RetentionModel};
use kelle_model::fault::{BitFlipRates, FaultStats};
use kelle_model::{CacheStats, DecodeTrace, ModelConfig, ModelKind, SurrogateModel};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration of a [`KelleEngine`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Which published model the engine emulates.
    pub model: ModelKind,
    /// Default KV-cache policy for new sessions (overridable per request).
    pub policy: CachePolicy,
    /// KV-cache budget applied by budgeted policies (surrogate scale).
    pub budget: CacheBudget,
    /// eDRAM refresh policy.
    pub refresh_policy: RefreshPolicy,
    /// Hardware platform the serving cost is evaluated on.
    pub platform: PlatformKind,
    /// KV budget used by the hardware model (`N'` at full model scale).
    pub hardware_n_prime: usize,
    /// Batch size assumed by the hardware model.
    pub batch: usize,
    /// RNG seed for weights and fault injection.
    pub seed: u64,
    /// Cross-session prefix KV sharing (see [`crate::prefix`]).
    pub prefix: PrefixSharingConfig,
    /// Worker threads used by [`KelleEngine::serve`] under
    /// [`ServeOptions::parallel`] and by [`KelleEngine::front`] (see
    /// [`crate::parallel`]).  `1` (the default) still runs the full
    /// coordinator/worker protocol on a single worker; token streams and
    /// batch metrics are bit-identical for every value.
    pub workers: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            model: ModelKind::Llama2_7b,
            policy: CachePolicy::Aerp,
            budget: CacheBudget::new(64)
                .with_recent_window(16)
                .with_sink_tokens(2),
            refresh_policy: RefreshPolicy::two_dimensional_default(),
            platform: PlatformKind::KelleEdram,
            hardware_n_prime: 2048,
            batch: 16,
            seed: 7,
            prefix: PrefixSharingConfig::default(),
            workers: 1,
        }
    }
}

/// Builder-style construction of a [`KelleEngine`].
///
/// Every knob defaults to [`EngineConfig::default`]; override what you need
/// and call [`EngineBuilder::build`].
///
/// ```rust
/// use kelle::{CachePolicy, KelleEngine};
/// use kelle::model::ModelKind;
///
/// let engine = KelleEngine::builder()
///     .model(ModelKind::Llama3_2_3b)
///     .policy(CachePolicy::Aerp)
///     .seed(11)
///     .build();
/// assert_eq!(engine.config().seed, 11);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EngineBuilder {
    config: EngineConfig,
}

impl EngineBuilder {
    /// Starts from the default configuration.
    pub fn new() -> Self {
        EngineBuilder::default()
    }

    /// Starts from an explicit configuration.
    pub fn from_config(config: EngineConfig) -> Self {
        EngineBuilder { config }
    }

    /// Sets the emulated model.
    pub fn model(mut self, model: ModelKind) -> Self {
        self.config.model = model;
        self
    }

    /// Sets the default KV-cache policy for sessions.
    pub fn policy(mut self, policy: CachePolicy) -> Self {
        self.config.policy = policy;
        self
    }

    /// Sets the surrogate-scale cache budget.
    pub fn budget(mut self, budget: CacheBudget) -> Self {
        self.config.budget = budget;
        self
    }

    /// Sets the eDRAM refresh policy.
    pub fn refresh_policy(mut self, policy: RefreshPolicy) -> Self {
        self.config.refresh_policy = policy;
        self
    }

    /// Sets the evaluated hardware platform.
    pub fn platform(mut self, platform: PlatformKind) -> Self {
        self.config.platform = platform;
        self
    }

    /// Sets the full-scale hardware KV budget `N'`.
    pub fn hardware_n_prime(mut self, n_prime: usize) -> Self {
        self.config.hardware_n_prime = n_prime;
        self
    }

    /// Sets the batch size assumed by the hardware model.
    pub fn batch(mut self, batch: usize) -> Self {
        self.config.batch = batch;
        self
    }

    /// Sets the RNG seed for weights and fault injection.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Configures cross-session prefix KV sharing (see [`crate::prefix`]).
    pub fn prefix_sharing(mut self, prefix: PrefixSharingConfig) -> Self {
        self.config.prefix = prefix;
        self
    }

    /// Enables prefix sharing with explicit publication
    /// ([`PrefixSharingConfig::enabled`]).
    pub fn enable_prefix_sharing(self) -> Self {
        self.prefix_sharing(PrefixSharingConfig::enabled())
    }

    /// Sets the number of worker threads [`KelleEngine::serve`] under
    /// [`ServeOptions::parallel`] and [`KelleEngine::front`] fan per-session
    /// prefill/decode steps out to (see [`crate::parallel`] for the
    /// threading model).  Clamped to at least 1;
    /// the worker count never changes token streams, fault statistics or
    /// batch metrics — only wall-clock time.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers.max(1);
        self
    }

    /// Builds the engine.
    pub fn build(self) -> KelleEngine {
        KelleEngine::new(self.config)
    }
}

/// Everything produced by one serving request.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Tokens generated by the surrogate model under the session's policy.
    pub generated: Vec<usize>,
    /// Decode-time cache trace (occupancy, evictions, recompute usage).
    pub trace: DecodeTrace,
    /// Final cache occupancy statistics.
    pub cache: CacheStats,
    /// Hardware latency/energy for the equivalent full-scale request on the
    /// configured platform.
    pub hardware: PlatformReport,
    /// Prompt tokens whose prefill was actually computed (a prefix-cache hit
    /// skips the matched tokens).
    pub prefilled_tokens: usize,
    /// Prompt tokens served from a shared prefix segment instead of being
    /// recomputed.
    pub prefix_hit_tokens: usize,
    /// Fault-injection counters of the serving session at the end of the
    /// request (words examined, bits flipped).  Deterministic per seed; the
    /// parallel-equivalence suite asserts these bit-match single-threaded
    /// serving for every worker count.
    pub faults: FaultStats,
    /// `None` for a request that ran its full decode budget; `Some(reason)`
    /// when the scheduler shed it early (deadline, queue timeout, cancel,
    /// drain, or an unrecoverable worker loss) — `generated` then holds the
    /// partial output produced before the shed.
    pub shed: Option<crate::chaos::ShedReason>,
}

impl From<TurnOutcome> for ServeOutcome {
    fn from(turn: TurnOutcome) -> Self {
        ServeOutcome {
            generated: turn.generated,
            trace: turn.trace,
            cache: turn.cache,
            hardware: turn.hardware,
            prefilled_tokens: turn.prefilled_tokens,
            prefix_hit_tokens: turn.prefix_hit_tokens,
            faults: turn.faults,
            shed: None,
        }
    }
}

/// Aggregate statistics across the lifetime of an engine.
///
/// One *request* is one served turn: a `serve_one` call, a `Session::turn`, or
/// one admitted request completing inside `serve`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Requests served.
    pub requests: u64,
    /// Total tokens generated.
    pub tokens_generated: u64,
    /// Total evictions performed by the cache policies.
    pub evictions: u64,
    /// Total modelled hardware energy in joules.
    pub hardware_energy_j: f64,
    /// Total prompt tokens served from shared prefix segments (prefill
    /// compute skipped).
    pub prefix_hit_tokens: u64,
}

impl EngineStats {
    /// Component-wise sum of two stat snapshots.
    pub fn merged(self, other: EngineStats) -> EngineStats {
        EngineStats {
            requests: self.requests + other.requests,
            tokens_generated: self.tokens_generated + other.tokens_generated,
            evictions: self.evictions + other.evictions,
            hardware_energy_j: self.hardware_energy_j + other.hardware_energy_j,
            prefix_hit_tokens: self.prefix_hit_tokens + other.prefix_hit_tokens,
        }
    }

    /// The stats contribution of one completed turn — the single definition
    /// both the engine's lifetime counters and the batch scheduler's
    /// aggregate fold in, so the two can never drift apart.
    pub fn from_turn(turn: &TurnOutcome) -> EngineStats {
        EngineStats {
            requests: 1,
            tokens_generated: turn.generated.len() as u64,
            evictions: turn.evictions_delta,
            hardware_energy_j: turn.hardware.total_energy_j(),
            prefix_hit_tokens: turn.prefix_hit_tokens as u64,
        }
    }
}

/// Execution options for the batch entry point [`KelleEngine::serve`].
///
/// * **Scheduling** — [`with_scheduler`](ServeOptions::with_scheduler)
///   carries the full [`SchedulerConfig`]: shared-capacity arbitration,
///   admission policy, tiering, chaos injection and the
///   [`SloSpec`](crate::scheduler::SloSpec) the batch's
///   [`SloReport`](crate::scheduler::SloReport) is graded against.
/// * **Execution** — [`parallel`](ServeOptions::parallel) fans per-session
///   prefill/decode compute across the engine's configured
///   [`workers`](EngineBuilder::workers); the default runs inline on the
///   calling thread.  Token streams are bit-identical either way.
/// * **Streaming** — [`streaming`](ServeOptions::streaming) registers a
///   `(request_index, token)` sink invoked on the coordinating thread in
///   exactly the order single-threaded serving would deliver tokens.
///
/// ```rust
/// use kelle::{KelleEngine, SchedulerConfig, ServeOptions, ServeRequest};
///
/// let engine = KelleEngine::builder().seed(5).workers(2).build();
/// let requests = vec![ServeRequest::new(vec![1, 2, 3], 4)];
/// let mut tokens = Vec::new();
/// let mut sink = |request: usize, token: usize| tokens.push((request, token));
/// let batch = engine
///     .serve(
///         requests,
///         ServeOptions::new()
///             .with_scheduler(SchedulerConfig::default())
///             .parallel()
///             .streaming(&mut sink),
///     )
///     .expect("no chaos configured, no worker can be lost");
/// assert_eq!(batch.outcomes[0].generated.len(), 4);
/// assert_eq!(tokens.len(), 4);
/// ```
#[derive(Default)]
pub struct ServeOptions<'cb> {
    scheduler: SchedulerConfig,
    parallel: bool,
    sink: Option<&'cb mut dyn FnMut(usize, usize)>,
}

impl std::fmt::Debug for ServeOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeOptions")
            .field("scheduler", &self.scheduler)
            .field("parallel", &self.parallel)
            .field("sink", &self.sink.as_ref().map(|_| "FnMut(usize, usize)"))
            .finish()
    }
}

impl<'cb> ServeOptions<'cb> {
    /// Default options: default scheduler (unbounded capacity), inline
    /// execution, no streaming sink.
    pub fn new() -> Self {
        ServeOptions::default()
    }

    /// Runs the batch under an explicit [`SchedulerConfig`] (capacity,
    /// admission policy, tiering, chaos, SLO spec).
    pub fn with_scheduler(mut self, config: SchedulerConfig) -> Self {
        self.scheduler = config;
        self
    }

    /// Fans per-session compute across the engine's configured worker
    /// threads (see [`crate::parallel`]).  Bit-identical streams, fault
    /// statistics and batch metrics for every worker count.
    pub fn parallel(mut self) -> Self {
        self.parallel = true;
        self
    }

    /// Streams `(request_index, token)` pairs to `sink` as tokens are
    /// generated, on the coordinating thread, in the order single-threaded
    /// serving would deliver them.
    pub fn streaming(mut self, sink: &'cb mut dyn FnMut(usize, usize)) -> Self {
        self.sink = Some(sink);
        self
    }

    /// The scheduler configuration the batch will run under.
    pub fn scheduler(&self) -> &SchedulerConfig {
        &self.scheduler
    }

    /// Whether the batch fans out across worker threads.
    pub fn is_parallel(&self) -> bool {
        self.parallel
    }
}

/// The co-designed serving engine.
#[derive(Debug)]
pub struct KelleEngine {
    config: EngineConfig,
    model: SurrogateModel,
    platform: Platform,
    stats: Mutex<EngineStats>,
    prefix: Mutex<PrefixStore>,
    /// Whether the engine's refresh policy produces zero bit-flip rates, so
    /// the fault seed is unobservable (see
    /// [`effective_prefix_seed`](KelleEngine::effective_prefix_seed)).
    noop_faults: bool,
}

impl KelleEngine {
    /// Builds an engine from a configuration.
    pub fn new(config: EngineConfig) -> Self {
        let model_config = ModelConfig::for_kind(config.model);
        let model = SurrogateModel::new(model_config, config.seed);
        let platform = Platform::preset(config.platform);
        let noop_faults = crate::faults::to_model_rates(
            config
                .refresh_policy
                .bit_flip_rates(&RetentionModel::default()),
        ) == BitFlipRates::zero();
        let prefix =
            PrefixStore::with_limits(config.prefix.store_budget_bytes, config.prefix.ttl_lookups);
        KelleEngine {
            config,
            model,
            platform,
            stats: Mutex::new(EngineStats::default()),
            prefix: Mutex::new(prefix),
            noop_faults,
        }
    }

    /// Starts builder-style construction.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The surrogate model the engine serves with.
    pub fn model(&self) -> &SurrogateModel {
        &self.model
    }

    /// The hardware platform model.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Aggregate statistics since construction.
    pub fn stats(&self) -> EngineStats {
        *self.stats.lock()
    }

    /// Prefix-store statistics (publications, hits, deduplicated tokens).
    pub fn prefix_stats(&self) -> PrefixStoreStats {
        self.prefix.lock().stats()
    }

    /// The engine's prefix-sharing configuration.
    pub fn prefix_config(&self) -> &PrefixSharingConfig {
        &self.config.prefix
    }

    /// Publishes `tokens` as a shared prefix boundary under the engine's
    /// default policy, budget and seed: one cold pre-fill is recorded into a
    /// [`SharedSegment`](kelle_model::SharedSegment) — the *only* time the
    /// prefix's transformer compute runs — and every later session whose
    /// first prompt starts with `tokens` (same configuration) replays it.
    ///
    /// Returns `false` without doing any work when sharing is disabled, the
    /// prefix is shorter than the configured minimum, or an identical
    /// boundary is already published.
    pub fn publish_prefix(&self, tokens: &[usize]) -> bool {
        self.publish_prefix_keyed(tokens, None)
    }

    /// Like [`publish_prefix`](KelleEngine::publish_prefix), honouring a
    /// request's policy/budget/seed overrides (the request's own prompt and
    /// decode length are ignored).
    pub fn publish_prefix_for(&self, tokens: &[usize], request: &ServeRequest) -> bool {
        self.publish_prefix_keyed(tokens, Some(request))
    }

    fn publish_prefix_keyed(&self, tokens: &[usize], request: Option<&ServeRequest>) -> bool {
        if !self.config.prefix.enabled || tokens.len() < self.config.prefix.min_tokens {
            return false;
        }
        // Duplicate check before any session machinery is built: defensive
        // per-fleet publish calls should cost one radix walk, not a cache
        // backend + fault injector construction.
        let key = match request {
            Some(request) => self.prefix_key_for(request),
            None => PrefixKey {
                policy: self.config.policy,
                budget: self.config.budget.clamped(),
                seed: self.effective_prefix_seed(self.config.seed),
            },
        };
        if self.prefix.lock().contains(tokens, &key) {
            return false;
        }
        let mut session = match request {
            Some(request) => Session::for_request(self, request),
            None => Session::with_defaults(self),
        };
        debug_assert_eq!(*session.prefix_key(), key, "key derivations agree");
        let segment = session.record_prefix(tokens);
        self.prefix.lock().publish(tokens, key, segment).is_some()
    }

    /// Publishes a **nested prefix hierarchy** from one recording pass: the
    /// transformer compute for `tokens[..boundaries.last()]` runs exactly
    /// once, and every boundary `b` in `boundaries` becomes its own shared
    /// segment for `tokens[..b]` — e.g. system prompt → per-tool preamble →
    /// per-user history.  Later sessions hit the *deepest* published
    /// boundary their prompt still starts with (radix longest-match), with
    /// streams bit-identical to cold serving.
    ///
    /// Boundaries must be strictly increasing and at most `tokens.len()`.
    /// Boundaries shorter than the configured
    /// [`min_tokens`](PrefixSharingConfig::min_tokens) and boundaries whose
    /// exact prefix is already published are skipped.  Returns the number of
    /// boundaries newly published (0 when sharing is disabled or everything
    /// was already published — no compute runs in that case).
    ///
    /// ```rust
    /// use kelle::{KelleEngine, PrefixSharingConfig};
    ///
    /// let engine = KelleEngine::builder()
    ///     .prefix_sharing(PrefixSharingConfig::enabled())
    ///     .build();
    /// let prompt: Vec<usize> = (0..24).collect();
    /// // One pass publishes both the 8-token and the 24-token boundary.
    /// assert_eq!(engine.publish_prefix_hierarchy(&prompt, &[8, 24]), 2);
    /// assert_eq!(engine.publish_prefix_hierarchy(&prompt, &[8, 24]), 0);
    /// ```
    pub fn publish_prefix_hierarchy(&self, tokens: &[usize], boundaries: &[usize]) -> usize {
        if !self.config.prefix.enabled || boundaries.is_empty() {
            return 0;
        }
        let mut prev = 0;
        for &boundary in boundaries {
            assert!(
                boundary > prev && boundary <= tokens.len(),
                "boundaries must be strictly increasing and within the prefix"
            );
            prev = boundary;
        }
        let key = PrefixKey {
            policy: self.config.policy,
            budget: self.config.budget.clamped(),
            seed: self.effective_prefix_seed(self.config.seed),
        };
        let wanted = |boundary: usize| boundary >= self.config.prefix.min_tokens;
        // Same defensive cheap-path as `publish_prefix`: a fleet re-issuing
        // its publish calls should cost radix walks, not a recording pass.
        {
            let store = self.prefix.lock();
            if boundaries
                .iter()
                .all(|&b| !wanted(b) || store.contains(&tokens[..b], &key))
            {
                return 0;
            }
        }
        let mut session = Session::with_defaults(self);
        debug_assert_eq!(*session.prefix_key(), key, "key derivations agree");
        let segments = session.record_prefix_hierarchy(tokens, boundaries);
        let mut published = 0;
        for (&boundary, segment) in boundaries.iter().zip(segments) {
            if !wanted(boundary) {
                continue;
            }
            if self
                .prefix
                .lock()
                .publish(&tokens[..boundary], key, segment)
                .is_some()
            {
                published += 1;
            }
        }
        published
    }

    /// Longest published prefix of `tokens` under `key`, updating hit/miss
    /// statistics.  `None` when sharing is disabled.
    pub(crate) fn prefix_lookup(&self, tokens: &[usize], key: &PrefixKey) -> Option<PrefixHit> {
        if !self.config.prefix.enabled {
            return None;
        }
        self.prefix.lock().lookup(tokens, key)
    }

    /// Statistics-free prefix probe: `(entry id, matched tokens)` for the
    /// longest published prefix of `tokens` under `key`.  Used by the batch
    /// scheduler to size admission footprints.
    pub(crate) fn prefix_probe(&self, tokens: &[usize], key: &PrefixKey) -> Option<(u64, usize)> {
        if !self.config.prefix.enabled {
            return None;
        }
        self.prefix
            .lock()
            .probe(tokens, key)
            .map(|(id, matched, _)| (id, matched))
    }

    /// The fault seed a prefix key carries for a session seeded with `seed`.
    ///
    /// When the engine's refresh policy produces **zero bit-flip rates**
    /// (e.g. [`RefreshPolicy::Conservative`], or a uniform interval short
    /// enough that nothing decays), the fault RNG is unobservable: every
    /// seed yields bit-identical values and fault statistics.  Prefix keys
    /// therefore normalise the seed to `0`, so sessions that differ *only*
    /// in fault seed share published segments.  Any non-zero rate keeps the
    /// exact seed — streams then genuinely differ per seed and sharing
    /// across them would break the bit-equivalence guarantee.
    pub(crate) fn effective_prefix_seed(&self, seed: u64) -> u64 {
        if self.noop_faults {
            0
        } else {
            seed
        }
    }

    /// The effective prefix-sharing fingerprint a session opened for
    /// `request` will use (the scheduler probes with it before activation).
    pub(crate) fn prefix_key_for(&self, request: &ServeRequest) -> PrefixKey {
        PrefixKey {
            policy: request.policy().unwrap_or(self.config.policy),
            budget: request.budget().unwrap_or(self.config.budget).clamped(),
            seed: self.effective_prefix_seed(request.seed().unwrap_or(self.config.seed)),
        }
    }

    /// Publishes an already recorded segment (the auto-publish path).
    pub(crate) fn prefix_publish(
        &self,
        tokens: &[usize],
        key: PrefixKey,
        segment: Arc<kelle_model::SharedSegment>,
    ) -> Option<u64> {
        self.prefix.lock().publish(tokens, key, segment)
    }

    /// Opens a persistent serving session with the engine's default policy,
    /// budget and seed.  The session owns its KV cache: successive turns
    /// pre-fill only their new tokens and reuse all earlier KV state.
    pub fn open_session(&self) -> Session<'_> {
        Session::with_defaults(self)
    }

    /// Opens a session configured by a request's policy/budget/seed overrides
    /// (the request's prompt and decode length are ignored here; pass them to
    /// [`Session::turn`]).
    pub fn open_session_for(&self, request: &ServeRequest) -> Session<'_> {
        Session::for_request(self, request)
    }

    /// Serves one request: pre-fills `prompt`, decodes `decode_len` tokens
    /// under the engine's default cache policy with retention faults, and
    /// evaluates the hardware cost of the equivalent full-scale request.
    ///
    /// Equivalent to a one-shot session:
    /// [`open_session`](KelleEngine::open_session) + one
    /// [`turn`](Session::turn).
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty or `decode_len` is zero.
    pub fn serve_one(&self, prompt: &[usize], decode_len: usize) -> ServeOutcome {
        self.serve_request(ServeRequest::builder(prompt).decode_len(decode_len).build())
    }

    /// Serves one [`ServeRequest`] (with its per-request overrides) as a
    /// one-shot session.
    pub fn serve_request(&self, request: ServeRequest) -> ServeOutcome {
        let mut session = Session::for_request(self, &request);
        session
            .run_turn(
                request.prompt(),
                request.decode_len(),
                request.label(),
                |_| {},
            )
            .into()
    }

    /// Full-scale KV footprint in bytes of a request retaining `tokens`
    /// tokens, under the configured platform's cache policy, hardware budget
    /// `N'` and batch size — the unit of account of the capacity ledger used
    /// by [`serve`](KelleEngine::serve) under a bounded
    /// [`SchedulerConfig`], and the same per-token byte cost the hardware
    /// step simulation charges.
    pub fn kv_footprint_bytes(&self, tokens: usize) -> u64 {
        let resident = self
            .platform
            .cache_policy
            .resident_tokens(tokens, Some(self.config.hardware_n_prime));
        self.platform
            .kv_footprint_bytes(self.model.config(), resident, self.config.batch)
    }

    /// Serves many requests under the continuous-batching scheduler — the
    /// synchronous batch entry point of the engine.
    ///
    /// [`ServeOptions`] selects every execution axis: the scheduler
    /// configuration (shared-capacity arbitration, admission policy,
    /// tiering, chaos, SLO spec), inline vs. worker-pool execution, and an
    /// optional streaming sink.  Requests carrying an
    /// [`arrival_tick`](ServeRequest::arrival_tick) join the waiting queue
    /// at that scheduler tick instead of immediately, which is how trace
    /// replay drives open-loop arrivals.
    ///
    /// Per-request token streams are **bit-identical** for every option
    /// combination (and every worker count); options change only cost,
    /// ordering and the metrics reported on [`BatchOutcome`].
    ///
    /// Returns per-request outcomes in submission order plus the batch's
    /// aggregate statistics, which equal the component-wise sum of serving
    /// the same requests sequentially.
    ///
    /// # Errors
    ///
    /// An unrecoverable worker loss — a task panic the chaos replay budget
    /// could not absorb — surfaces as [`ServeError::WorkerLost`], so callers
    /// can tell infrastructure failure from request failure.  Without a
    /// [`ChaosConfig`](crate::chaos::ChaosConfig) no worker is ever lost and
    /// the `Result` can be unwrapped directly.
    ///
    /// ```rust
    /// use kelle::{KelleEngine, ServeOptions, ServeRequest};
    ///
    /// let engine = KelleEngine::builder().seed(9).build();
    /// let batch = engine
    ///     .serve(
    ///         vec![ServeRequest::new(vec![1, 2, 3], 4)],
    ///         ServeOptions::new(),
    ///     )
    ///     .expect("no chaos configured, no worker can be lost");
    /// assert_eq!(batch.outcomes[0].generated.len(), 4);
    /// ```
    pub fn serve(
        &self,
        requests: Vec<ServeRequest>,
        options: ServeOptions<'_>,
    ) -> Result<BatchOutcome, ServeError> {
        let ServeOptions {
            scheduler,
            parallel,
            sink,
        } = options;
        if parallel {
            std::thread::scope(|scope| {
                let mut pool = WorkerPool::start(scope, self.config.workers);
                self.serve_on(requests, scheduler, sink, &mut pool)
            })
        } else {
            self.serve_on(requests, scheduler, sink, &mut InlineExecutor::default())
        }
    }

    /// [`serve`](KelleEngine::serve) on a given executor: the whole list is
    /// enqueued and then admitted at once, so its prefills reach the
    /// executor in as few [`admit`](StepExecutor::admit) calls as prefix
    /// publication allows and fan out over the shards.
    fn serve_on<'e>(
        &'e self,
        requests: Vec<ServeRequest>,
        config: SchedulerConfig,
        mut sink: Option<&mut dyn FnMut(usize, usize)>,
        executor: &mut dyn StepExecutor<'e>,
    ) -> Result<BatchOutcome, ServeError> {
        let mut scheduler = BatchScheduler::with_config(self, config);
        for request in requests {
            scheduler.enqueue(request);
        }
        scheduler.admit_waiting(executor);
        scheduler.run_with(executor, |event| {
            if let (ServeEvent::Token { request, token, .. }, Some(sink)) = (event, &mut sink) {
                sink(request, token);
            }
        })
    }

    /// Folds one completed turn into the lifetime statistics.
    pub(crate) fn record_turn(&self, outcome: &TurnOutcome) {
        let mut stats = self.stats.lock();
        *stats = stats.merged(EngineStats::from_turn(outcome));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{Admission, Prefilled, ResidentStep, StepRequest, TaskFailure};

    fn engine() -> KelleEngine {
        KelleEngine::new(EngineConfig::default())
    }

    #[test]
    fn serve_produces_tokens_and_hardware_costs() {
        let engine = engine();
        let outcome = engine.serve_one(&[3, 1, 4, 1, 5, 9, 2, 6], 12);
        assert_eq!(outcome.generated.len(), 12);
        assert!(outcome.hardware.total_latency_s() > 0.0);
        assert!(outcome.hardware.total_energy_j() > 0.0);
        assert!(outcome.cache.insertions > 0);
    }

    #[test]
    fn stats_accumulate_across_requests() {
        let engine = engine();
        engine.serve_one(&[1, 2, 3, 4], 4);
        engine.serve_one(&[5, 6, 7, 8], 4);
        let stats = engine.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.tokens_generated, 8);
        assert!(stats.hardware_energy_j > 0.0);
    }

    #[test]
    fn budget_is_respected_during_serving() {
        let config = EngineConfig {
            budget: CacheBudget::new(8)
                .with_recent_window(2)
                .with_sink_tokens(1),
            ..EngineConfig::default()
        };
        let engine = KelleEngine::new(config);
        let prompt: Vec<usize> = (0..32).collect();
        let outcome = engine.serve_one(&prompt, 16);
        // Per-head occupancy never exceeds the budget after prefill pruning.
        assert!(outcome.trace.peak_entries() > 0);
        assert!(outcome.cache.evictions > 0);
    }

    #[test]
    fn serving_is_deterministic_for_a_seed() {
        let a = engine().serve_one(&[9, 8, 7, 6, 5], 8).generated;
        let b = engine().serve_one(&[9, 8, 7, 6, 5], 8).generated;
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "prompt must contain at least one token")]
    fn empty_prompt_panics() {
        engine().serve_one(&[], 4);
    }

    #[test]
    fn builder_overrides_knobs() {
        let engine = KelleEngine::builder()
            .model(ModelKind::Mistral7b)
            .policy(CachePolicy::StreamingLlm)
            .budget(CacheBudget::new(16))
            .platform(PlatformKind::OriginalSram)
            .hardware_n_prime(1024)
            .batch(4)
            .seed(99)
            .build();
        let config = engine.config();
        assert_eq!(config.model, ModelKind::Mistral7b);
        assert_eq!(config.policy, CachePolicy::StreamingLlm);
        assert_eq!(config.hardware_n_prime, 1024);
        assert_eq!(config.batch, 4);
        assert_eq!(config.seed, 99);
    }

    #[test]
    fn engine_policy_selects_backend() {
        let engine = KelleEngine::builder().policy(CachePolicy::Full).build();
        let outcome = engine.serve_one(&[1, 2, 3, 4, 5, 6], 4);
        // The full policy never evicts.
        assert_eq!(outcome.cache.evictions, 0);
    }

    #[test]
    fn published_prefix_hit_skips_compute_and_matches_cold_stream() {
        use crate::prefix::PrefixSharingConfig;
        let prefix: Vec<usize> = (0..24).map(|i| (i * 7 + 3) % 512).collect();
        let suffix = [9, 8, 7, 6];
        let prompt: Vec<usize> = prefix.iter().chain(suffix.iter()).copied().collect();

        let cold = engine().serve_one(&prompt, 6);

        let sharing = KelleEngine::builder()
            .prefix_sharing(PrefixSharingConfig::enabled())
            .build();
        assert!(sharing.publish_prefix(&prefix));
        assert!(
            !sharing.publish_prefix(&prefix),
            "duplicate publish is a no-op"
        );
        let hit = sharing.serve_one(&prompt, 6);

        assert_eq!(
            hit.generated, cold.generated,
            "streams must be bit-identical"
        );
        assert_eq!(hit.prefix_hit_tokens, prefix.len());
        assert_eq!(hit.prefilled_tokens, suffix.len());
        assert_eq!(cold.prefix_hit_tokens, 0);
        let stats = sharing.prefix_stats();
        assert_eq!(stats.published, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.hit_tokens, prefix.len() as u64);
        assert_eq!(sharing.stats().prefix_hit_tokens, prefix.len() as u64);
    }

    #[test]
    fn auto_publish_warms_the_store_for_later_sessions() {
        use crate::prefix::PrefixSharingConfig;
        let system: Vec<usize> = (0..16).map(|i| (i * 5 + 1) % 512).collect();
        let engine = KelleEngine::builder()
            .prefix_sharing(PrefixSharingConfig::enabled().with_auto_publish(system.len()))
            .build();
        let mut first: Vec<usize> = system.clone();
        first.extend([1, 2, 3]);
        let mut second: Vec<usize> = system.clone();
        second.extend([4, 5]);

        let a = engine.serve_one(&first, 4);
        assert_eq!(a.prefix_hit_tokens, 0, "first session is the publisher");
        let b = engine.serve_one(&second, 4);
        assert_eq!(b.prefix_hit_tokens, system.len(), "second session hits");
        assert_eq!(b.prefilled_tokens, 2);

        // Identical to a cold engine without sharing.
        let cold = KelleEngine::new(EngineConfig::default()).serve_one(&second, 4);
        assert_eq!(b.generated, cold.generated);
    }

    #[test]
    fn auto_publish_deepens_past_a_shorter_published_prefix() {
        use crate::prefix::PrefixSharingConfig;
        let system: Vec<usize> = (0..24).map(|i| (i * 11 + 2) % 512).collect();
        let engine = KelleEngine::builder()
            .prefix_sharing(PrefixSharingConfig::enabled().with_auto_publish(system.len()))
            .build();
        // A shallower boundary is already published (e.g. a shared preamble
        // of the system prompt).
        assert!(engine.publish_prefix(&system[..8]));

        let mut prompt = system.clone();
        prompt.extend([3, 1, 4]);
        // The first session must not settle for the 8-token hit: it runs
        // cold once and publishes the configured 24-token boundary.
        let first = engine.serve_one(&prompt, 2);
        assert_eq!(first.prefix_hit_tokens, 0);
        assert_eq!(engine.prefix_stats().published, 2);
        // From then on the fleet hits the deep boundary.
        let second = engine.serve_one(&prompt, 2);
        assert_eq!(second.prefix_hit_tokens, system.len());
        assert_eq!(second.prefilled_tokens, 3);
        // Still bit-identical to a cold engine.
        let cold = KelleEngine::new(EngineConfig::default()).serve_one(&prompt, 2);
        assert_eq!(first.generated, cold.generated);
        assert_eq!(second.generated, cold.generated);
    }

    #[test]
    fn noop_fault_policies_share_segments_across_seeds() {
        use crate::prefix::PrefixSharingConfig;
        let prefix: Vec<usize> = (0..12).map(|i| (i * 13 + 5) % 512).collect();
        let mut prompt = prefix.clone();
        prompt.extend([3, 4]);

        // Conservative refresh injects no faults: the seed is unobservable,
        // so a session with a different fault seed still hits the boundary.
        let noop = KelleEngine::builder()
            .refresh_policy(RefreshPolicy::Conservative)
            .prefix_sharing(PrefixSharingConfig::enabled())
            .build();
        assert!(noop.publish_prefix(&prefix));
        let other_seed = ServeRequest::builder(prompt.clone())
            .decode_len(4)
            .seed(12_345)
            .build();
        let hit = noop.serve_request(other_seed.clone());
        assert_eq!(hit.prefix_hit_tokens, prefix.len());
        // And the stream matches a cold engine serving the same request.
        let cold = KelleEngine::builder()
            .refresh_policy(RefreshPolicy::Conservative)
            .build()
            .serve_request(other_seed);
        assert_eq!(hit.generated, cold.generated);
        assert_eq!(hit.faults, cold.faults);

        // The default 2DRP policy flips bits: seeds genuinely matter and a
        // different seed must keep missing.
        let faulting = KelleEngine::builder()
            .prefix_sharing(PrefixSharingConfig::enabled())
            .build();
        assert!(faulting.publish_prefix(&prefix));
        let miss = faulting.serve_request(
            ServeRequest::builder(prompt)
                .decode_len(4)
                .seed(12_345)
                .build(),
        );
        assert_eq!(miss.prefix_hit_tokens, 0);
    }

    #[test]
    fn sharing_disabled_never_publishes_or_hits() {
        let engine = engine();
        assert!(!engine.publish_prefix(&[1, 2, 3, 4, 5, 6, 7, 8]));
        let stats = engine.prefix_stats();
        assert_eq!(stats.published, 0);
        engine.serve_one(&[1, 2, 3, 4, 5, 6, 7, 8], 2);
        assert_eq!(engine.prefix_stats().hits + engine.prefix_stats().misses, 0);
    }

    #[test]
    fn stats_merge_componentwise() {
        let a = EngineStats {
            requests: 1,
            tokens_generated: 2,
            evictions: 3,
            hardware_energy_j: 4.0,
            prefix_hit_tokens: 5,
        };
        let b = a;
        let sum = a.merged(b);
        assert_eq!(sum.requests, 2);
        assert_eq!(sum.tokens_generated, 4);
        assert_eq!(sum.evictions, 6);
        assert!((sum.hardware_energy_j - 8.0).abs() < 1e-12);
    }

    /// An [`InlineExecutor`] that writes down what each `admit` call carried.
    #[derive(Default)]
    struct Recording<'e> {
        inner: InlineExecutor<'e>,
        /// Request indices of every `admit` call, in call order.
        admits: Vec<Vec<usize>>,
    }

    impl<'e> StepExecutor<'e> for Recording<'e> {
        fn admit(&mut self, admissions: Vec<Admission<'e>>) -> Vec<Result<Prefilled, TaskFailure>> {
            self.admits
                .push(admissions.iter().map(Admission::index).collect());
            self.inner.admit(admissions)
        }

        fn step(&mut self, requests: &[StepRequest]) -> Vec<Result<ResidentStep, TaskFailure>> {
            self.inner.step(requests)
        }

        fn take(&mut self, index: usize) -> Option<Session<'e>> {
            self.inner.take(index)
        }
    }

    #[test]
    fn serve_hands_a_whole_list_to_the_executor_in_one_admit_call() {
        let engine = engine();
        let requests: Vec<ServeRequest> = (0..5)
            .map(|i| ServeRequest::new(vec![i + 1, i + 2, i + 3], 2))
            .collect();
        let mut executor = Recording::default();
        let batch = engine
            .serve_on(requests, SchedulerConfig::default(), None, &mut executor)
            .unwrap();
        assert_eq!(executor.admits, vec![vec![0, 1, 2, 3, 4]]);
        assert_eq!(batch.contention.total_queue_ticks, 0);
    }

    #[test]
    fn a_publishing_prefill_is_flushed_before_the_next_request_is_planned() {
        let engine = KelleEngine::builder()
            .prefix_sharing(PrefixSharingConfig::enabled().with_auto_publish(6))
            .build();
        let system: Vec<usize> = (10..16).collect();
        let behind_system = |tail: usize| {
            let mut prompt = system.clone();
            prompt.extend([tail, tail + 1]);
            ServeRequest::new(prompt, 2)
        };
        let requests = vec![
            ServeRequest::new(vec![1, 2, 3], 2),
            behind_system(100),
            behind_system(200),
            ServeRequest::new(vec![4, 5, 6], 2),
        ];
        let mut executor = Recording::default();
        let batch = engine
            .serve_on(requests, SchedulerConfig::default(), None, &mut executor)
            .unwrap();
        // Request 1 publishes the system prompt: the flush barrier closes the
        // batch behind it, so request 2's plan sees the publication and hits.
        assert_eq!(executor.admits, vec![vec![0, 1], vec![2, 3]]);
        assert_eq!(batch.outcomes[1].prefix_hit_tokens, 0);
        assert_eq!(batch.outcomes[2].prefix_hit_tokens, system.len());
    }
}
