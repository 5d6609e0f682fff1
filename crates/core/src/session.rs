//! Requests and persistent serving sessions.
//!
//! A [`ServeRequest`] describes one unit of serving work — prompt, decode
//! length, and optional per-request overrides of the engine's cache policy,
//! budget and fault seed.  A [`Session`] owns the KV-cache backend and decode
//! cursor for one conversation: across turns it pre-fills *only the new
//! tokens* and reuses all earlier KV state, which is the serving lever the
//! single-shot `serve` API could not express (it re-pre-filled the whole
//! conversation every turn).

use crate::engine::KelleEngine;
use crate::faults::fault_injector_for_policy;
use crate::prefix::{PrefixHit, PrefixKey};
use kelle_arch::{InferenceWorkload, PlatformReport};
use kelle_cache::{CacheBudget, CachePolicy};
use kelle_edram::RetentionModel;
use kelle_model::fault::{FaultInjector, FaultStats, ProbabilisticFaults};
use kelle_model::generation::{decode_step, prefill, prefill_extend, DecodeStep, GenerationState};
use kelle_model::{CacheStats, DecodeTrace, KvCacheBackend, SegmentRecorder, SharedSegment};
use std::sync::Arc;

/// One unit of serving work.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    prompt: Vec<usize>,
    decode_len: usize,
    policy: Option<CachePolicy>,
    budget: Option<CacheBudget>,
    seed: Option<u64>,
    label: &'static str,
    deadline_ticks: Option<u64>,
    queue_timeout_ticks: Option<u64>,
    arrival_tick: u64,
}

impl ServeRequest {
    /// A request decoding `decode_len` tokens after `prompt`, with engine
    /// defaults for everything else.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty or `decode_len` is zero.
    pub fn new(prompt: impl Into<Vec<usize>>, decode_len: usize) -> Self {
        ServeRequestBuilder::new(prompt)
            .decode_len(decode_len)
            .build()
    }

    /// Starts builder-style construction from a prompt.
    pub fn builder(prompt: impl Into<Vec<usize>>) -> ServeRequestBuilder {
        ServeRequestBuilder::new(prompt)
    }

    /// The prompt tokens.
    pub fn prompt(&self) -> &[usize] {
        &self.prompt
    }

    /// The number of decode steps requested.
    pub fn decode_len(&self) -> usize {
        self.decode_len
    }

    /// The cache-policy override, if any.
    pub fn policy(&self) -> Option<CachePolicy> {
        self.policy
    }

    /// The budget override, if any.
    pub fn budget(&self) -> Option<CacheBudget> {
        self.budget
    }

    /// The fault-seed override, if any.
    pub fn seed(&self) -> Option<u64> {
        self.seed
    }

    /// The workload label used in hardware reports.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// The end-to-end deadline in scheduler ticks, if any.  A request still
    /// active this many ticks after submission is shed with its partial
    /// output ([`ShedReason::DeadlineExceeded`](crate::chaos::ShedReason)).
    pub fn deadline_ticks(&self) -> Option<u64> {
        self.deadline_ticks
    }

    /// The admission-queue timeout in scheduler ticks, if any.  A request
    /// still waiting this many ticks after submission is shed unserved
    /// ([`ShedReason::QueueTimeout`](crate::chaos::ShedReason)).
    pub fn queue_timeout_ticks(&self) -> Option<u64> {
        self.queue_timeout_ticks
    }

    /// The scheduler tick this request arrives at (default 0: immediately).
    /// A request submitted before its arrival tick stays invisible to
    /// admission until the scheduler's clock reaches it — the mechanism
    /// workload traces use to replay an arrival process deterministically.
    pub fn arrival_tick(&self) -> u64 {
        self.arrival_tick
    }
}

/// Builder for [`ServeRequest`].
#[derive(Debug, Clone)]
pub struct ServeRequestBuilder {
    prompt: Vec<usize>,
    decode_len: usize,
    policy: Option<CachePolicy>,
    budget: Option<CacheBudget>,
    seed: Option<u64>,
    label: &'static str,
    deadline_ticks: Option<u64>,
    queue_timeout_ticks: Option<u64>,
    arrival_tick: u64,
}

impl ServeRequestBuilder {
    fn new(prompt: impl Into<Vec<usize>>) -> Self {
        ServeRequestBuilder {
            prompt: prompt.into(),
            decode_len: 16,
            policy: None,
            budget: None,
            seed: None,
            label: "serve",
            deadline_ticks: None,
            queue_timeout_ticks: None,
            arrival_tick: 0,
        }
    }

    /// Sets the number of decode steps (default 16).
    pub fn decode_len(mut self, decode_len: usize) -> Self {
        self.decode_len = decode_len;
        self
    }

    /// Overrides the engine's default cache policy for this request.
    pub fn policy(mut self, policy: CachePolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Overrides the engine's default cache budget for this request.
    pub fn budget(mut self, budget: CacheBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Overrides the engine's fault-injection seed for this request.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets the workload label used in hardware reports (default `"serve"`).
    pub fn label(mut self, label: &'static str) -> Self {
        self.label = label;
        self
    }

    /// Sets an end-to-end deadline in scheduler ticks (default: none).
    ///
    /// Note that a deadline changes *scheduling*, not compute: combining
    /// deadlines with bit-identity comparisons across chaos configurations
    /// is meaningless, because chaos shifts admission timing and therefore
    /// which requests get shed.
    pub fn deadline_ticks(mut self, ticks: u64) -> Self {
        self.deadline_ticks = Some(ticks);
        self
    }

    /// Sets an admission-queue timeout in scheduler ticks (default: none).
    pub fn queue_timeout_ticks(mut self, ticks: u64) -> Self {
        self.queue_timeout_ticks = Some(ticks);
        self
    }

    /// Sets the arrival tick (default 0: arrive immediately).  Deadlines and
    /// queue timeouts count from arrival, not from when the trace was loaded.
    pub fn arrival_tick(mut self, tick: u64) -> Self {
        self.arrival_tick = tick;
        self
    }

    /// Finalises the request.
    ///
    /// # Panics
    ///
    /// Panics if the prompt is empty or the decode length is zero.
    pub fn build(self) -> ServeRequest {
        assert!(
            !self.prompt.is_empty(),
            "prompt must contain at least one token"
        );
        assert!(self.decode_len > 0, "decode length must be non-zero");
        ServeRequest {
            prompt: self.prompt,
            decode_len: self.decode_len,
            policy: self.policy,
            budget: self.budget,
            seed: self.seed,
            label: self.label,
            deadline_ticks: self.deadline_ticks,
            queue_timeout_ticks: self.queue_timeout_ticks,
            arrival_tick: self.arrival_tick,
        }
    }
}

/// How a session's next [`prefill`](Session::prefill) call will interact
/// with the engine's prefix store, resolved *before* any model compute runs.
///
/// Planning is separated from execution for the threaded front-end
/// (`kelle::parallel`): the coordinator resolves every plan in admission
/// order (all prefix-store reads and statistics updates happen there,
/// exactly as in single-threaded serving), and the compute-only execution
/// ([`Session::prefill_planned`]) can then run on any worker.  [`Cold`]
/// (on a non-first prefill or a store miss) and [`Hit`] executions never
/// touch the store; a [`Publish`] execution writes the recorded segment to
/// the store when it completes, so the scheduler serialises admission
/// planning around it.
///
/// [`Cold`]: PrefillPlan::Cold
/// [`Hit`]: PrefillPlan::Hit
/// [`Publish`]: PrefillPlan::Publish
#[derive(Debug)]
pub(crate) enum PrefillPlan {
    /// Plain computed prefill: every token runs through the model.
    Cold,
    /// Replay the matched shared segment, then compute only the suffix.
    Hit(PrefixHit),
    /// Cold pass that records and publishes the first `boundary` tokens as a
    /// shared prefix while serving normally (the auto-publish path).
    Publish(usize),
}

impl PrefillPlan {
    /// Whether executing this plan mutates the prefix store.
    pub(crate) fn publishes(&self) -> bool {
        matches!(self, PrefillPlan::Publish(_))
    }
}

/// Everything produced by one session turn.
#[derive(Debug, Clone)]
pub struct TurnOutcome {
    /// Tokens generated during this turn's decode phase.
    pub generated: Vec<usize>,
    /// Decode trace of this turn.
    pub trace: DecodeTrace,
    /// Cache occupancy statistics at the end of the turn (cumulative over the
    /// session).
    pub cache: CacheStats,
    /// Hardware cost of this turn: pre-fill of the *new* tokens only, plus
    /// the decode steps, on the configured platform.
    pub hardware: PlatformReport,
    /// Pre-fill work actually performed this turn (new tokens only; tokens
    /// served from a shared prefix segment are excluded — their compute was
    /// paid once, at publication).
    pub prefilled_tokens: usize,
    /// Total context length (all processed tokens) after the turn.
    pub context_len: usize,
    /// Evictions performed during this turn (as opposed to the session-wide
    /// cumulative count in `cache.evictions`).
    pub evictions_delta: u64,
    /// Prompt tokens served from a shared prefix segment during this turn
    /// (non-zero only on the session's first turn, where prefix lookup
    /// happens).
    pub prefix_hit_tokens: usize,
    /// Fault-injection counters of the session at the end of the turn
    /// (cumulative across the session's turns, like `cache`).  Deterministic
    /// per seed — the parallel-equivalence suite asserts these bit-match
    /// single-threaded serving.
    pub faults: FaultStats,
}

/// A persistent serving session: one conversation's KV cache, fault stream
/// and decode cursor.
///
/// Obtained from [`KelleEngine::open_session`] or
/// [`KelleEngine::open_session_for`].  Each [`turn`](Session::turn) appends
/// new prompt tokens (pre-filling only those), decodes the requested number
/// of tokens, and reports both functional and hardware outcomes.
#[derive(Debug)]
pub struct Session<'e> {
    engine: &'e KelleEngine,
    policy: CachePolicy,
    cache: Box<dyn KvCacheBackend>,
    faults: ProbabilisticFaults,
    state: GenerationState,
    context: Vec<usize>,
    turns: usize,
    recorded_evictions: u64,
    /// The session's effective configuration fingerprint for prefix sharing.
    key: PrefixKey,
    /// Tokens adopted from a shared prefix segment on the first pre-fill.
    prefix_hit_tokens: usize,
    /// Keeps the matched segment (and its refcount) alive while this
    /// session may still read its arenas zero-copy.
    prefix_segment: Option<Arc<SharedSegment>>,
    /// Prefix-hit tokens not yet attributed to a finished turn.
    pending_prefix_hit: usize,
}

impl<'e> Session<'e> {
    /// Opens a session with the engine's default policy, budget and seed.
    pub(crate) fn with_defaults(engine: &'e KelleEngine) -> Self {
        Session::build(engine, None, None, None)
    }

    /// Opens a session honouring a request's overrides.
    pub(crate) fn for_request(engine: &'e KelleEngine, request: &ServeRequest) -> Self {
        Session::build(engine, request.policy(), request.budget(), request.seed())
    }

    fn build(
        engine: &'e KelleEngine,
        policy: Option<CachePolicy>,
        budget: Option<CacheBudget>,
        seed: Option<u64>,
    ) -> Self {
        let config = engine.config();
        let policy = policy.unwrap_or(config.policy);
        let budget = budget.unwrap_or(config.budget);
        let seed = seed.unwrap_or(config.seed);
        let heads = engine.model().dims().heads;
        let cache = policy.build(budget, heads);
        let faults = fault_injector_for_policy(
            &config.refresh_policy,
            &RetentionModel::default(),
            seed ^ 0x5eed,
        );
        Session {
            engine,
            policy,
            cache,
            faults,
            state: GenerationState::new(),
            context: Vec::new(),
            turns: 0,
            recorded_evictions: 0,
            // The registry clamps budgets when building backends; the key
            // must fingerprint the same effective budget.  The seed is
            // normalised away when the refresh policy injects no faults, so
            // seed-only configuration differences still share segments.
            key: PrefixKey {
                policy,
                budget: budget.clamped(),
                seed: engine.effective_prefix_seed(seed),
            },
            prefix_hit_tokens: 0,
            prefix_segment: None,
            pending_prefix_hit: 0,
        }
    }

    /// A deep copy of this session for checkpoint/replay recovery.
    ///
    /// Everything the next decode step reads is duplicated: the KV-cache
    /// backend (via [`KvCacheBackend::clone_box`]), the fault-RNG stream,
    /// the generation cursor and the context.  A shared prefix segment is
    /// *not* duplicated — the `Arc` is cloned, which is exactly right: the
    /// segment is immutable and its ledger/tier accounting is keyed on the
    /// original attach, so a fork is accounting-neutral.  Replaying a step
    /// on the fork therefore produces bit-identical tokens, probability
    /// bits and fault statistics to the step the original would have run.
    pub(crate) fn fork(&self) -> Session<'e> {
        Session {
            engine: self.engine,
            policy: self.policy,
            cache: self.cache.clone_box(),
            faults: self.faults.clone(),
            state: self.state.clone(),
            context: self.context.clone(),
            turns: self.turns,
            recorded_evictions: self.recorded_evictions,
            key: self.key,
            prefix_hit_tokens: self.prefix_hit_tokens,
            prefix_segment: self.prefix_segment.clone(),
            pending_prefix_hit: self.pending_prefix_hit,
        }
    }

    /// The cache policy this session runs.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// All input tokens processed so far (prompt tokens of every turn plus
    /// the decode-time input chain), in sequence order.  Feeding this exact
    /// sequence to a fresh one-shot request reproduces the session's KV state
    /// under a non-evicting policy.
    pub fn context(&self) -> &[usize] {
        &self.context
    }

    /// The next sequence position (total tokens processed).
    pub fn position(&self) -> usize {
        self.state.position()
    }

    /// Total prompt tokens whose prefill was actually **computed** across all
    /// turns.  Two kinds of prompt tokens are excluded: earlier turns'
    /// context (each turn pre-fills only its new tokens), and tokens replayed
    /// from a shared prefix segment on the first turn — their transformer
    /// compute was paid once, at publication, and is reported by
    /// [`prefix_hit_tokens`](Session::prefix_hit_tokens) instead.
    ///
    /// ```
    /// use kelle::{KelleEngine, PrefixSharingConfig};
    ///
    /// let engine = KelleEngine::builder()
    ///     .prefix_sharing(PrefixSharingConfig::enabled())
    ///     .build();
    /// let prefix: Vec<usize> = (0..8).collect();
    /// assert!(engine.publish_prefix(&prefix));
    ///
    /// let mut session = engine.open_session();
    /// let mut prompt = prefix.clone();
    /// prompt.extend([100, 101]);
    /// session.prefill(&prompt);
    /// // The 8 prefix tokens were replayed, not computed: only the
    /// // two-token suffix counts as prefill work.
    /// assert_eq!(session.prefilled_tokens(), 2);
    /// assert_eq!(session.prefix_hit_tokens(), 8);
    /// ```
    pub fn prefilled_tokens(&self) -> usize {
        self.state.prefilled_tokens()
    }

    /// Number of completed turns.
    pub fn turns(&self) -> usize {
        self.turns
    }

    /// Current cache occupancy statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Fault-injection counters accumulated by this session (words examined,
    /// bits flipped).  A prefix-cache hit resumes the publication snapshot's
    /// stream, so these match a cold session's counters bit for bit.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats()
    }

    /// Prompt tokens this session served from a shared prefix segment (zero
    /// when sharing is disabled or the first prompt missed).
    pub fn prefix_hit_tokens(&self) -> usize {
        self.prefix_hit_tokens
    }

    /// The session's effective configuration fingerprint for prefix sharing.
    pub(crate) fn prefix_key(&self) -> &PrefixKey {
        &self.key
    }

    /// Appends `tokens` to the session context, pre-filling only them (no
    /// decoding).  Returns the number of tokens whose prefill was actually
    /// *computed*: on the session's first pre-fill with prefix sharing
    /// enabled, a store hit replays the matched prefix from its shared
    /// segment (bit-identical state, zero model compute) and only the
    /// unmatched suffix is computed.
    ///
    /// # Panics
    ///
    /// Panics if the session has no context yet and `tokens` is empty.
    pub fn prefill(&mut self, tokens: &[usize]) -> usize {
        let plan = self.plan_prefill(tokens);
        self.prefill_planned(tokens, plan)
    }

    /// Resolves how the next [`prefill`](Session::prefill) of `tokens` will
    /// interact with the prefix store — this is where *all* store reads (and
    /// their hit/miss statistics) happen, so the batch scheduler can plan
    /// admissions in order on the coordinating thread and execute the
    /// compute anywhere.
    pub(crate) fn plan_prefill(&mut self, tokens: &[usize]) -> PrefillPlan {
        if self.context.is_empty() && !tokens.is_empty() {
            // Publishing the configured boundary takes precedence over
            // hitting a *shorter* published prefix: one cold pass here and
            // the whole fleet hits the deeper boundary from now on.  (The
            // boundary check probes the exact boundary, so once it is
            // published this arm stays cold.)
            if let Some(boundary) = self.auto_publish_boundary(tokens) {
                return PrefillPlan::Publish(boundary);
            }
            if let Some(hit) = self.engine.prefix_lookup(tokens, &self.key) {
                return PrefillPlan::Hit(hit);
            }
        }
        PrefillPlan::Cold
    }

    /// Executes a previously resolved [`PrefillPlan`] for `tokens`.  `Cold`
    /// and `Hit` plans never touch the prefix store; a `Publish` plan writes
    /// the recorded segment when the pass completes.  `prefill` is exactly
    /// `plan_prefill` + `prefill_planned`, so the two-phase path is
    /// bit-identical to single-call prefilling by construction.
    pub(crate) fn prefill_planned(&mut self, tokens: &[usize], plan: PrefillPlan) -> usize {
        match plan {
            PrefillPlan::Publish(boundary) => self.prefill_publishing(tokens, boundary),
            PrefillPlan::Hit(hit) => self.prefill_shared(tokens, hit),
            PrefillPlan::Cold => {
                let count = prefill(
                    self.engine.model(),
                    &mut self.state,
                    tokens,
                    self.cache.as_mut(),
                    &mut self.faults,
                );
                self.context.extend_from_slice(tokens);
                count
            }
        }
    }

    /// The prefix-store hit path: replay the matched segment, compute only
    /// the suffix, and finish pre-fill once (the cold call sequence).
    /// Returns the computed token count.
    fn prefill_shared(&mut self, tokens: &[usize], hit: PrefixHit) -> usize {
        let matched = hit.matched;
        debug_assert_eq!(
            hit.segment.len(),
            matched,
            "store hands out exact boundaries"
        );
        hit.segment.attach_and_replay(self.cache.as_mut());
        self.state.adopt_prefix(matched, hit.segment.logits());
        self.faults = hit.segment.faults_snapshot();
        self.context.extend_from_slice(&tokens[..matched]);
        let rest = &tokens[matched..];
        let computed = if rest.is_empty() {
            0
        } else {
            let computed = prefill_extend(
                self.engine.model(),
                &mut self.state,
                rest,
                self.cache.as_mut(),
                &mut self.faults,
            );
            self.context.extend_from_slice(rest);
            computed
        };
        self.cache.finish_prefill(self.state.position());
        self.prefix_hit_tokens = matched;
        self.pending_prefix_hit = matched;
        self.prefix_segment = Some(hit.segment);
        computed
    }

    /// Whether this cold first prompt should auto-publish a boundary, and
    /// where.
    fn auto_publish_boundary(&self, tokens: &[usize]) -> Option<usize> {
        let config = self.engine.prefix_config();
        if !config.enabled {
            return None;
        }
        let boundary = config.auto_publish_tokens?;
        if boundary < config.min_tokens || tokens.len() < boundary {
            return None;
        }
        // Probe the exact boundary: once it is published, sessions take the
        // hit path instead of re-recording.  A *shorter* published match
        // deliberately still returns `Some` — the fleet should deepen to
        // the configured boundary rather than keep hitting the shallow one.
        match self.engine.prefix_probe(&tokens[..boundary], &self.key) {
            Some((_, matched)) if matched == boundary => None,
            _ => Some(boundary),
        }
    }

    /// Cold first pre-fill that records and publishes `tokens[..boundary]`
    /// as a shared boundary while serving normally.
    fn prefill_publishing(&mut self, tokens: &[usize], boundary: usize) -> usize {
        let segment = {
            let mut recorder = SegmentRecorder::new(self.cache.as_mut());
            prefill_extend(
                self.engine.model(),
                &mut self.state,
                &tokens[..boundary],
                &mut recorder,
                &mut self.faults,
            );
            recorder
        };
        let segment = Arc::new(segment.finish(self.state.last_logits(), self.faults.clone()));
        self.engine
            .prefix_publish(&tokens[..boundary], self.key, segment);
        let rest = &tokens[boundary..];
        let mut count = boundary;
        if !rest.is_empty() {
            count += prefill_extend(
                self.engine.model(),
                &mut self.state,
                rest,
                self.cache.as_mut(),
                &mut self.faults,
            );
        }
        self.cache.finish_prefill(self.state.position());
        self.context.extend_from_slice(tokens);
        count
    }

    /// Records a publication pre-fill of `tokens` on this fresh session and
    /// returns the frozen segment (the engine's `publish_prefix` driver).
    ///
    /// # Panics
    ///
    /// Panics if the session already has context or `tokens` is empty.
    pub(crate) fn record_prefix(&mut self, tokens: &[usize]) -> Arc<SharedSegment> {
        assert!(
            self.context.is_empty(),
            "prefix publication requires a fresh session"
        );
        assert!(!tokens.is_empty(), "cannot publish an empty prefix");
        let recorder = {
            let mut recorder = SegmentRecorder::new(self.cache.as_mut());
            prefill_extend(
                self.engine.model(),
                &mut self.state,
                tokens,
                &mut recorder,
                &mut self.faults,
            );
            recorder
        };
        self.context.extend_from_slice(tokens);
        Arc::new(recorder.finish(self.state.last_logits(), self.faults.clone()))
    }

    /// Records a *nested prefix hierarchy* in one pre-fill pass: the
    /// transformer runs over `tokens` exactly once, and a segment is frozen
    /// at every boundary in `boundaries` (strictly increasing prefix
    /// lengths; the last may equal `tokens.len()`).  Each returned segment
    /// carries the cursor state (logits + fault RNG) *at its own boundary*,
    /// so replaying it is bit-identical to a cold pre-fill of just that
    /// prefix — this is how system prompt → tool preamble → user history
    /// hierarchies publish every level for the cost of one recording.
    ///
    /// Chunked pre-fill is bit-identical to one-shot pre-fill (the
    /// generation suite proves it), so segment `k` is exactly what
    /// [`record_prefix`](Session::record_prefix) of `tokens[..boundaries[k]]`
    /// would have produced.
    ///
    /// # Panics
    ///
    /// Panics if the session has context, `boundaries` is empty or not
    /// strictly increasing, or any boundary is zero or beyond `tokens`.
    pub(crate) fn record_prefix_hierarchy(
        &mut self,
        tokens: &[usize],
        boundaries: &[usize],
    ) -> Vec<Arc<SharedSegment>> {
        assert!(
            self.context.is_empty(),
            "prefix publication requires a fresh session"
        );
        assert!(
            !boundaries.is_empty(),
            "hierarchy needs at least one boundary"
        );
        let mut recorder = SegmentRecorder::new(self.cache.as_mut());
        let mut start = 0;
        for &boundary in boundaries {
            assert!(
                boundary > start && boundary <= tokens.len(),
                "boundaries must be strictly increasing and within the prefix"
            );
            prefill_extend(
                self.engine.model(),
                &mut self.state,
                &tokens[start..boundary],
                &mut recorder,
                &mut self.faults,
            );
            recorder.mark_boundary(self.state.last_logits(), self.faults.clone());
            start = boundary;
        }
        let segments = recorder.finish_hierarchy();
        self.context.extend_from_slice(&tokens[..start]);
        segments.into_iter().map(Arc::new).collect()
    }

    /// Runs exactly one decode step, returning the chosen token, its
    /// distribution and the trace record.
    ///
    /// # Panics
    ///
    /// Panics if nothing has been pre-filled yet.
    pub fn decode_one(&mut self) -> DecodeStep {
        if let Some(input) = self.state.next_token() {
            self.context.push(input);
        }
        decode_step(
            self.engine.model(),
            &mut self.state,
            None,
            self.cache.as_mut(),
            &mut self.faults,
        )
    }

    /// Serves one turn: pre-fills the turn's `tokens` (reusing all earlier
    /// KV state) and decodes `decode_len` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `decode_len` is zero, or on the first turn if `tokens` is
    /// empty.
    pub fn turn(&mut self, tokens: &[usize], decode_len: usize) -> TurnOutcome {
        self.turn_streaming(tokens, decode_len, |_| {})
    }

    /// Like [`turn`](Session::turn), invoking `on_token` as each token is
    /// generated.
    pub fn turn_streaming(
        &mut self,
        tokens: &[usize],
        decode_len: usize,
        on_token: impl FnMut(usize),
    ) -> TurnOutcome {
        self.run_turn(tokens, decode_len, "serve", on_token)
    }

    /// [`turn_streaming`](Session::turn_streaming) with an explicit workload
    /// label for the hardware report (used by the request-driven entry
    /// points so `ServeRequest::label` is honoured everywhere).
    pub(crate) fn run_turn(
        &mut self,
        tokens: &[usize],
        decode_len: usize,
        label: &'static str,
        mut on_token: impl FnMut(usize),
    ) -> TurnOutcome {
        assert!(decode_len > 0, "decode length must be non-zero");
        let prefilled = self.prefill(tokens);
        let mut generated = Vec::with_capacity(decode_len);
        let mut trace = DecodeTrace::default();
        for _ in 0..decode_len {
            let step = self.decode_one();
            on_token(step.token);
            generated.push(step.token);
            trace.steps.push(step.record);
        }
        self.finish_turn(generated, trace, prefilled, decode_len, label, None)
    }

    /// Assembles a [`TurnOutcome`] from collected decode results, simulates
    /// the turn's hardware cost and folds it into the engine statistics.
    /// Shared by [`run_turn`](Session::run_turn) and the batch scheduler.
    ///
    /// `kv_capacity_bytes` is the on-chip KV residency granted to this turn
    /// under shared-capacity arbitration (`None` = the whole KV memory, the
    /// single-tenant default): KV bytes beyond the grant are charged at DRAM
    /// access cost.  The grant only changes the *hardware* cost model — the
    /// generated tokens were already sampled and are never affected.
    pub(crate) fn finish_turn(
        &mut self,
        generated: Vec<usize>,
        trace: DecodeTrace,
        prefilled_tokens: usize,
        decode_len: usize,
        label: &'static str,
        kv_capacity_bytes: Option<u64>,
    ) -> TurnOutcome {
        let config = self.engine.config();
        // The decode phase attends over the whole accumulated context, while
        // pre-fill work covers only this turn's new tokens — the reused
        // prefix is charged to the turns that built it.
        let context_at_decode_start = self.state.position().saturating_sub(decode_len).max(1);
        let reused = context_at_decode_start - prefilled_tokens.min(context_at_decode_start);
        let workload = InferenceWorkload::new(
            label,
            context_at_decode_start,
            decode_len.max(1),
            config.batch,
        )
        .with_reused_context(reused)
        .with_kv_capacity_bytes(kv_capacity_bytes);
        let hardware = self.engine.platform().simulate(
            self.engine.model().config(),
            &workload,
            Some(config.hardware_n_prime),
        );
        let cache = self.cache.stats();
        let evictions_delta = cache.evictions - self.recorded_evictions;
        self.recorded_evictions = cache.evictions;
        self.turns += 1;
        let outcome = TurnOutcome {
            generated,
            trace,
            cache,
            hardware,
            prefilled_tokens,
            context_len: self.state.position(),
            evictions_delta,
            prefix_hit_tokens: std::mem::take(&mut self.pending_prefix_hit),
            faults: self.faults.stats(),
        };
        self.engine.record_turn(&outcome);
        outcome
    }
}

// Sessions move between the coordinator and the worker shards of the
// threaded serving front-end (`crate::parallel`).  This fails the build —
// here, with a comment — if any per-session component (cache backend, fault
// RNG, generation state, prefix segment handle) stops being `Send`.
#[allow(dead_code)]
fn assert_sessions_are_send(session: Session<'_>) -> impl Send + '_ {
    session
}
