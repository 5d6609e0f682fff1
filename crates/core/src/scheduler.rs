//! Continuous-batching scheduler with shared-capacity admission control.
//!
//! [`BatchScheduler`] keeps many [`Session`]s in flight at once, arbitrating
//! one shared eDRAM budget across them.  Serving is a three-stage pipeline:
//!
//! 1. **Submit** — `enqueue` registers a request
//!    in the waiting queue.  It does *not* guarantee immediate service.
//! 2. **Admit** — at the tick boundary
//!    (`admit_waiting` for the requests
//!    submitted since the last tick, back-fill at the end of every step) a
//!    configurable [`AdmissionPolicy`] promotes waiting requests into active
//!    decode slots whenever the [`CapacityLedger`] can host their prefill KV
//!    footprint (computed at full hardware scale, the same per-token byte
//!    cost [`Platform::simulate`](kelle_arch::Platform) charges).  Admission
//!    opens a capacity lease and pre-fills the prompt — all the prefills of
//!    one boundary as one batch on the [`WorkerPool`].
//!    [`submit`](BatchScheduler::submit) /
//!    [`submit_with`](BatchScheduler::submit_with) do both stages in one
//!    call, for a scheduler driven by hand.
//! 3. **Step** — each [`step`](BatchScheduler::step) runs one decode step for
//!    every active request in admission order (round-robin fairness), grows
//!    each lease by the decoded token's KV bytes, releases capacity when a
//!    request completes, and back-fills from the waiting queue.
//!
//! # The tick
//!
//! [`try_step_with`](BatchScheduler::try_step_with) — the body of every step
//! entry point — is a list of phases, run in this order:
//!
//! 1. **admit** what was enqueued since the last tick
//!    (`admit_waiting`);
//! 2. **advance** the tick clock;
//! 3. **release arrivals** whose arrival tick has come into the waiting queue;
//! 4. **shed expired** requests — queue timeouts and deadlines — in
//!    request-index order, before any compute is spent on them;
//! 5. **promote and fan out**: each unpaused active session is promoted back
//!    to eDRAM if a rebalance demoted it, then stepped where it lives; under
//!    chaos, panicked steps are replayed from their checkpoints within the
//!    retry budget;
//! 6. **commit** the steps in request-index order: tokens, traces, the tick's
//!    lease growth as one commit, and every active request's concurrency
//!    peak;
//! 7. **finalize** the completions, then shed the losses, each in
//!    request-index order;
//! 8. **rebalance** the tiers, now that completions freed their bytes;
//! 9. **back-fill**: admit from the waiting queue into the freed capacity.
//!
//! Every residency operation — fit, admit, promote, grow, release,
//! rebalance — goes through one owner, `KvPlacement` (see [`crate::tier`]),
//! which holds the [`CapacityLedger`] and the optional [`TierManager`]
//! together.  A request
//! leaves the scheduler through one finalize path, completed or shed.
//!
//! # Equivalence guarantee
//!
//! Sessions are functionally independent (each owns its cache and fault
//! stream), so *capacity arbitration changes cost and ordering, never sampled
//! tokens*: for any capacity and admission policy, every request's generated
//! token stream is byte-identical to serving it alone or through the
//! unbounded scheduler — the integration and property tests assert this for
//! random request mixes.  Contention shows up in two places only: the
//! hardware cost model (a request whose peak-concurrency share of the eDRAM
//! is smaller than its working set has the excess charged at DRAM access
//! cost) and the queueing metrics of [`BatchOutcome::contention`].
//!
//! # Capacity model
//!
//! The ledger tracks each session's *full-scale* KV bytes — per-token bytes
//! under the platform's cache policy (AERP stores popular tokens as input
//! vectors at half cost) times layers, times the hardware batch size, with
//! the token count capped at the hardware budget `N'`.  Admission checks the
//! prompt's prefill footprint; decode growth is never refused (a live request
//! cannot be paused mid-token), so the ledger may oversubscribe.  A request
//! whose peak concurrency exceeded the arbitrated capacity is costed against
//! a proportional slice of the on-chip KV memory,
//! `min(capacity, physical) x my_bytes / peak_concurrent_bytes`, instead of
//! the whole device; the bytes that lose on-chip residency are reported as
//! spill and charged at [`DramSpec`](kelle_edram::DramSpec) cost.  With
//! unbounded capacity (the default) every request is admitted at submit time
//! with the whole memory granted, reproducing the PR 1 scheduler exactly.

use crate::chaos::{ChaosConfig, ChaosMetrics, ChaosPlan, ServeError, ShedReason};
use crate::engine::{EngineStats, KelleEngine, ServeOutcome};
use crate::parallel::{
    Admission, ParallelMetrics, Prefilled, ResidentStep, StepRequest, TaskFailure, WorkerPool,
};
use crate::session::{ServeRequest, Session};
use crate::tier::{Footprint, KvPlacement, TierConfig, TierManager, TieringMetrics};
use kelle_arch::{PhaseMetrics, PlatformReport};
use kelle_edram::{CapacityLedger, LeaseId};
use kelle_model::{CacheStats, DecodeTrace, FaultStats};
use std::collections::{BTreeMap, VecDeque};

/// Which waiting request the admission stage promotes next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AdmissionPolicy {
    /// Strict first-come-first-served: only the head of the queue is ever
    /// considered, so a large request at the head blocks everything behind it
    /// (no starvation, head-of-line blocking possible).
    #[default]
    Fcfs,
    /// Shortest-prompt-first: the waiting request with the smallest prefill
    /// footprint is considered first (better queue latency for small
    /// requests; a large request can be overtaken indefinitely).
    ShortestPromptFirst,
    /// First-fit: the queue is scanned in arrival order and every request
    /// whose footprint fits is admitted, skipping over those that do not.
    CapacityFit,
}

impl AdmissionPolicy {
    /// All policies, for sweeps.
    pub fn all() -> [AdmissionPolicy; 3] {
        [
            AdmissionPolicy::Fcfs,
            AdmissionPolicy::ShortestPromptFirst,
            AdmissionPolicy::CapacityFit,
        ]
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            AdmissionPolicy::Fcfs => "fcfs",
            AdmissionPolicy::ShortestPromptFirst => "shortest-prompt-first",
            AdmissionPolicy::CapacityFit => "capacity-fit",
        }
    }
}

/// Configuration of the admission pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SchedulerConfig {
    /// Shared KV-memory budget concurrent requests contend for, in full-scale
    /// bytes.  `None` (the default) is the unbounded single-tenant model of
    /// the PR 1 scheduler: every request is admitted at submit time and
    /// costed against the whole KV memory.
    pub(crate) kv_capacity_bytes: Option<u64>,
    /// How waiting requests are promoted when capacity frees up.
    pub(crate) admission: AdmissionPolicy,
    /// The tiered KV memory hierarchy (see [`crate::tier`]).  `None` (the
    /// default) runs the flat single-budget model above.  When set (and
    /// `kv_capacity_bytes` is `None`), the ledger spans the *whole
    /// hierarchy* while admission plans against the eDRAM tier's budget
    /// only; resident KV is demoted/promoted across tiers with migration
    /// costs reported in [`BatchOutcome::tiering`].
    pub(crate) tiering: Option<TierConfig>,
    /// Deterministic fault injection (see [`crate::chaos`]).  `None` or an
    /// all-zero config disables injection entirely — the chaos path then
    /// takes no checkpoints and allocates nothing extra per tick.
    pub(crate) chaos: Option<ChaosConfig>,
    /// The serving-level objective the batch is judged against (see
    /// [`SloSpec`]).  Purely observational: the spec never changes
    /// scheduling decisions or token streams, it only classifies each
    /// completed request as meeting or missing the objective in the final
    /// [`SloReport`].  The default accepts everything.
    pub(crate) slo: SloSpec,
}

impl SchedulerConfig {
    /// Unbounded capacity, FCFS admission (the PR 1-equivalent default).
    pub fn unbounded() -> Self {
        SchedulerConfig::default()
    }

    /// Contend for `bytes` of shared KV capacity (builder style).  A zero
    /// capacity (easily produced by scaling a footprint down to nothing) is
    /// clamped to one byte — the most starved budget expressible — instead
    /// of panicking deep inside the ledger.
    pub fn with_kv_capacity_bytes(mut self, bytes: u64) -> Self {
        self.kv_capacity_bytes = Some(bytes.max(1));
        self
    }

    /// Sets the admission policy (builder style).
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Enables the tiered KV memory hierarchy (builder style).  Usually
    /// combined with an unbounded `kv_capacity_bytes`: capacity pressure is
    /// then expressed through the eDRAM tier budget and demotion, not
    /// through admission-queue starvation.
    pub fn with_tiering(mut self, tiering: TierConfig) -> Self {
        self.tiering = Some(tiering);
        self
    }

    /// Enables deterministic fault injection (builder style).  The plan is
    /// seeded from the config, so two schedulers built from equal configs
    /// inject the identical fault sequence.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Sets the serving-level objective requests are judged against in the
    /// final [`SloReport`] (builder style).  Observational only.
    pub fn with_slo(mut self, slo: SloSpec) -> Self {
        self.slo = slo;
        self
    }
}

/// One token generated during a scheduler step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepEvent {
    /// Index of the request (submission order) that produced the token.
    pub request: usize,
    /// The generated token.
    pub token: usize,
    /// Whether this token completed the request.
    pub finished: bool,
}

/// One streaming event of the driving loop ([`BatchScheduler::run_with`])
/// and the `kelle::front` token streams: a generated token, or a request
/// leaving the batch early.
///
/// Deadline/timeout sheds, cancellations, drains and worker losses surface
/// *as they happen*, after the tick's tokens, in request-index order —
/// instead of a shed request simply going quiet until the final
/// [`BatchOutcome`] reports why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeEvent {
    /// A generated token (identical to the [`StepEvent`] stream).
    Token {
        /// Index of the request (submission order) that produced the token.
        request: usize,
        /// The generated token.
        token: usize,
        /// Whether this token completed the request.
        finished: bool,
    },
    /// A request was finalized early; its outcome carries whatever tokens it
    /// had generated and this reason.
    Shed {
        /// Index of the shed request.
        request: usize,
        /// Why it was shed.
        reason: ShedReason,
    },
}

/// Queueing and capacity accounting for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestTiming {
    /// Scheduler tick at which the request was submitted.
    pub(crate) submitted_tick: u64,
    /// Tick at which admission promoted it into a decode slot.
    pub admitted_tick: u64,
    /// Tick at which its last token was generated.
    pub finished_tick: u64,
    /// Tick at which its first decode token committed (`None` for requests
    /// shed before producing any output).  `first_token_tick -
    /// submitted_tick` is the request's time-to-first-token.
    pub(crate) first_token_tick: Option<u64>,
    /// Ticks spent in the waiting queue (`admitted - submitted`).
    pub queue_ticks: u64,
    /// Final full-scale KV footprint of the request's *private* lease in
    /// bytes (prompt suffix + decode growth).  Bytes of a matched shared
    /// prefix are charged once batch-wide through the ledger's shared pool
    /// and reported in [`PrefixBatchMetrics`], not here.
    pub(crate) kv_bytes: u64,
    /// Peak total live bytes observed on the ledger while this request was
    /// active — the contention it actually experienced.
    pub(crate) peak_concurrent_bytes: u64,
    /// On-chip KV residency granted by the arbiter (`None` when the request
    /// was never contended and got the whole memory).
    pub granted_bytes: Option<u64>,
    /// KV bytes that lost on-chip residency to contention (relative to the
    /// single-tenant residency), served from DRAM instead.
    pub spill_bytes: u64,
}

/// Batch-level prefix-sharing metrics (see [`crate::prefix`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefixBatchMetrics {
    /// Requests whose first prompt matched a published prefix.
    pub hit_requests: u64,
    /// Prompt tokens served from shared segments instead of being
    /// recomputed.
    pub hit_tokens: u64,
    /// Full-scale KV bytes this batch charged to the shared pool — one
    /// charge per prefix *residency period*.  While any session holds a
    /// prefix it is charged once regardless of how many attach; a prefix
    /// whose last session detaches and that is later re-attached opens a
    /// new residency period and charges (and counts here) again.
    pub shared_bytes: u64,
    /// Full-scale KV bytes deduplication kept off the ledger: every
    /// attachment that joined an already-charged prefix would have
    /// re-charged it in a sharing-oblivious stack.
    pub deduplicated_bytes: u64,
}

/// Batch-level contention metrics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ContentionMetrics {
    /// The arbitrated capacity (`None` = unbounded).
    pub capacity_bytes: Option<u64>,
    /// Ledger high-water mark: peak live KV bytes across the whole batch.
    pub peak_residency_bytes: u64,
    /// Total KV bytes charged at DRAM cost because contention shrank their
    /// requests' on-chip shares.
    pub spill_bytes: u64,
    /// Sum of queue ticks across requests.
    pub total_queue_ticks: u64,
    /// Longest time any request spent queueing.
    pub max_queue_ticks: u64,
    /// Per-request timings, in submission order.
    pub per_request: Vec<RequestTiming>,
}

impl ContentionMetrics {
    /// Mean ticks a request spent in the waiting queue.
    pub(crate) fn mean_queue_ticks(&self) -> f64 {
        if self.per_request.is_empty() {
            0.0
        } else {
            self.total_queue_ticks as f64 / self.per_request.len() as f64
        }
    }
}

/// A serving-level objective: the latency bounds a request must meet to
/// count toward goodput.
///
/// Latencies are measured in scheduler *ticks* — the deterministic time base
/// of the batch pipeline (one tick = one decode round) — so the same trace
/// produces the identical [`SloReport`] on any host and worker count.  The
/// default spec accepts every completed request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Maximum acceptable time-to-first-token, in ticks from submission
    /// (queueing included).
    pub ttft_ticks: u64,
    /// Maximum acceptable mean time-per-output-token over the request's
    /// decode phase, in ticks (requests with fewer than two tokens have no
    /// measurable TPOT and pass this bound).
    pub tpot_ticks: f64,
}

impl Default for SloSpec {
    fn default() -> Self {
        SloSpec {
            ttft_ticks: u64::MAX,
            tpot_ticks: f64::MAX,
        }
    }
}

impl SloSpec {
    /// A spec bounding both time-to-first-token and time-per-output-token.
    pub fn new(ttft_ticks: u64, tpot_ticks: f64) -> Self {
        SloSpec {
            ttft_ticks,
            tpot_ticks,
        }
    }

    /// Whether a completed request with this TTFT/TPOT meets the objective.
    /// `tpot` is `None` when the request produced fewer than two tokens.
    pub(crate) fn met_by(&self, ttft_ticks: u64, tpot: Option<f64>) -> bool {
        ttft_ticks <= self.ttft_ticks && tpot.is_none_or(|t| t <= self.tpot_ticks)
    }
}

/// Order statistics of one latency distribution, in ticks.
///
/// Percentiles are nearest-rank over the sorted samples (`p50` of one sample
/// is that sample), so equal sample sets summarize identically on every
/// host.  An empty distribution summarizes to all zeros.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Arithmetic mean.
    pub(crate) mean: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples summarized.
    pub(crate) samples: u64,
}

impl LatencySummary {
    /// Summarizes a sample set (order irrelevant; the samples are sorted).
    pub(crate) fn from_samples(mut samples: Vec<f64>) -> Self {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_by(f64::total_cmp);
        let rank = |q: f64| {
            let k = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            samples[k - 1]
        };
        LatencySummary {
            p50: rank(0.50),
            p95: rank(0.95),
            p99: rank(0.99),
            mean: samples.iter().sum::<f64>() / samples.len() as f64,
            max: samples[samples.len() - 1],
            samples: samples.len() as u64,
        }
    }
}

/// Per-batch serving-quality report: TTFT/TPOT/queue-time distributions and
/// goodput under the configured [`SloSpec`].
///
/// Collected on every [`BatchOutcome`] (the spec defaults to
/// accept-everything, so the report costs nothing to always produce).  All
/// latencies are deterministic scheduler ticks: the same submitted trace
/// yields the bit-identical report at any worker count — the CI determinism
/// gate asserts exactly this.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SloReport {
    /// The objective requests were judged against.
    pub(crate) spec: SloSpec,
    /// Requests submitted.
    pub requests: u64,
    /// Requests that ran to natural completion.
    pub completed: u64,
    /// Requests shed (deadline, queue timeout, cancel, drain, worker loss).
    pub shed: u64,
    /// Time-to-first-token distribution over requests that produced output,
    /// in ticks from submission.
    pub ttft: LatencySummary,
    /// Mean time-per-output-token distribution over completed requests with
    /// at least two tokens, in ticks.
    pub(crate) tpot: LatencySummary,
    /// Queue-wait distribution over all requests, in ticks.
    pub queue: LatencySummary,
    /// Completed requests that met the objective.
    pub goodput_requests: u64,
    /// Tokens generated by those requests.
    pub(crate) goodput_tokens: u64,
    /// Tokens generated by the whole batch (shed partials included).
    pub total_tokens: u64,
    /// Ticks the batch ran for.
    pub ticks: u64,
}

impl SloReport {
    /// Fraction of submitted requests that completed *and* met the
    /// objective — the headline goodput number.
    pub fn goodput_fraction(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.goodput_requests as f64 / self.requests as f64
        }
    }
}

/// Everything produced by a batch of requests.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-request outcomes, in submission order.
    pub outcomes: Vec<ServeOutcome>,
    /// Aggregate statistics of the batch: the component-wise sum of the
    /// per-request outcomes, equal to what serving the batch sequentially
    /// would have added to [`KelleEngine::stats`].
    pub stats: EngineStats,
    /// Queueing and shared-capacity accounting.
    pub contention: ContentionMetrics,
    /// Prefix-sharing accounting (all zeros when sharing is disabled).
    pub prefix: PrefixBatchMetrics,
    /// Tiered-memory accounting (all zeros when tiering is disabled).
    /// Migration time and energy live only here — per-request hardware
    /// reports and [`BatchOutcome::stats`] are identical to an
    /// unlimited-eDRAM run.
    pub tiering: TieringMetrics,
    /// Fault-injection and recovery accounting (all zeros when chaos is
    /// disabled and nothing was shed, cancelled or drained).
    pub chaos: ChaosMetrics,
    /// Cross-thread traffic accounting of the pool protocol: the same
    /// counters at every worker count, one shard included.  Like
    /// [`BatchOutcome::tiering`], these are *cost* metrics: every worker
    /// count produces bit-identical streams.
    pub parallel: ParallelMetrics,
    /// Serving-quality report: TTFT/TPOT/queue-time distributions and
    /// goodput under the configured [`SloSpec`].
    pub slo: SloReport,
}

impl BatchOutcome {
    /// The batch's metric blocks as one owned [`BatchReport`] —
    /// everything except the per-request outcomes, which carry borrowed
    /// engine state and stay on the outcome itself.
    pub fn report(&self) -> BatchReport {
        BatchReport {
            contention: self.contention.clone(),
            prefix: self.prefix,
            tiering: self.tiering,
            parallel: self.parallel,
            chaos: self.chaos,
            slo: self.slo.clone(),
        }
    }
}

/// Every metric block of a [`BatchOutcome`] under one roof: contention,
/// prefix sharing, tiering, pool traffic, chaos recovery and the SLO
/// report.
///
/// Reporting layers (kbench) keep a `BatchReport` instead of hand-extracting
/// individual blocks.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchReport {
    /// Queueing and shared-capacity accounting.
    pub(crate) contention: ContentionMetrics,
    /// Prefix-sharing accounting.
    pub prefix: PrefixBatchMetrics,
    /// Tiered-memory accounting.
    pub tiering: TieringMetrics,
    /// Pool-protocol traffic accounting.
    pub parallel: ParallelMetrics,
    /// Fault-injection and recovery accounting.
    pub(crate) chaos: ChaosMetrics,
    /// Serving-quality report.
    pub slo: SloReport,
}

/// Error returned by [`BatchScheduler::finish`] when requests are still
/// waiting or decoding.  The scheduler is handed back inside the error —
/// nothing in flight is lost — so the caller can
/// [`resume`](BatchIncomplete::resume) it and keep stepping.
#[derive(Debug)]
pub struct BatchIncomplete<'e> {
    /// Requests still decoding.
    pub(crate) active: usize,
    /// Requests still in the waiting queue.
    pub(crate) waiting: usize,
    scheduler: Box<BatchScheduler<'e>>,
}

impl<'e> BatchIncomplete<'e> {
    /// Recovers the scheduler, with every queued and in-flight request
    /// intact, so it can be driven to completion.
    pub fn resume(self) -> BatchScheduler<'e> {
        *self.scheduler
    }
}

impl std::fmt::Display for BatchIncomplete<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "batch is not finished: {} request(s) still decoding, {} waiting",
            self.active, self.waiting
        )
    }
}

impl std::error::Error for BatchIncomplete<'_> {}

/// The coordinator's record of an active request.  The [`Session`] itself is
/// resident on its pool shard from admission until it is taken back for
/// finalization; the slot holds only what commits need.
struct Slot {
    request: ServeRequest,
    prefilled: usize,
    generated: Vec<usize>,
    trace: DecodeTrace,
    lease: LeaseId,
    peak_concurrent_bytes: u64,
    /// Shared-pool attachment for the request's prefix hit, if any:
    /// `(tag, full-scale bytes)`.
    shared: Option<(u64, u64)>,
    /// Backpressure: a paused slot is skipped by decode fan-out (its session
    /// stays exactly where it is) until resumed.  Pausing can never change a
    /// stream — a session is a pure function of its own state — only *when*
    /// its tokens are produced.
    paused: bool,
    /// Pool shard the session was admitted to.  Taking a session back from
    /// its shard is a queue crossing, and a step reported from anywhere else
    /// is a migration.
    worker: usize,
}

impl Slot {
    /// Whether the request has generated its whole decode budget.
    fn is_complete(&self) -> bool {
        self.generated.len() == self.request.decode_len()
    }
}

/// An admission whose prefill is on the pool: what its slot opens with
/// once the prefill comes back.
struct Admitted {
    index: usize,
    request: ServeRequest,
    lease: LeaseId,
    shared: Option<(u64, u64)>,
    /// Ledger live bytes right after this admission's reservations — the
    /// value sequential serving records as the slot's initial
    /// `peak_concurrent_bytes` (captured here because later admissions in
    /// the same pump land on the ledger before the prefill returns).
    live_at_admission: u64,
}

/// The admissions one pump planned, in admission order.
type Pending<'e> = Vec<(Admission<'e>, Admitted)>;

/// Interleaves decode steps across many in-flight serving sessions under
/// shared-capacity admission control (see the [module docs](self)).
///
/// Between public calls a request lives in exactly one place: the arrival
/// map until its arrival tick, the waiting queue until admission, the active
/// map while it decodes, and the outcome table once it is finalized.  (Within
/// one admission pump it is briefly a pending admission on its way to the
/// pool.)
pub struct BatchScheduler<'e> {
    engine: &'e KelleEngine,
    config: SchedulerConfig,
    /// Where every KV byte lives: the capacity ledger and the tiers.
    placement: KvPlacement,
    /// Requests submitted with a future [`ServeRequest::arrival_tick`],
    /// keyed `(arrival, index)`: they join the waiting queue — and become
    /// visible to admission — only once the tick clock reaches their
    /// arrival.  This is how a trace's open-loop arrival process drives the
    /// scheduler deterministically.
    arrivals: BTreeMap<(u64, usize), ServeRequest>,
    /// Requests waiting for admission, in queue order.
    waiting: VecDeque<(usize, ServeRequest)>,
    /// How many requests at the tail of `waiting` were
    /// [`enqueue`](BatchScheduler::enqueue)d since the last admission and
    /// have not been offered to the admission policy yet.
    fresh: usize,
    /// Decoding requests by index, so iteration order is commit order.
    active: BTreeMap<usize, Slot>,
    /// One entry per submitted request, filled when it is finalized.
    outcomes: Vec<Option<ServeOutcome>>,
    timings: Vec<RequestTiming>,
    stats: EngineStats,
    tick: u64,
    spill_bytes: u64,
    /// Prefix hits; the shared-pool byte counters are the placement's and
    /// join them at [`finish`](BatchScheduler::finish).
    prefix: PrefixBatchMetrics,
    /// Seeded fault-injection plan; `None` when chaos is disabled.
    chaos: Option<ChaosPlan>,
    chaos_metrics: ChaosMetrics,
    /// Where sessions live when the scheduler is driven through its plain
    /// [`submit`](BatchScheduler::submit) / [`step`](BatchScheduler::step)
    /// entry points: a one-shard pool on the calling thread.
    pool: WorkerPool<'e>,
    /// Set by [`begin_drain`](BatchScheduler::begin_drain): admission stops
    /// pumping and the machine winds down to idle.
    draining: bool,
    /// Pool-protocol traffic counters (see [`ParallelMetrics`]).
    parallel: ParallelMetrics,
    /// Sheds since the last [`take_shed_events`](BatchScheduler::take_shed_events),
    /// in the order they happened — the streaming-path view of
    /// [`ShedReason`], bounded by the number of submitted requests (a
    /// request sheds at most once).
    shed_events: Vec<(usize, ShedReason)>,
}

impl<'e> BatchScheduler<'e> {
    /// A scheduler with unbounded capacity and FCFS admission: every
    /// submitted request is promoted immediately, exactly reproducing the
    /// pre-arbitration scheduler.
    pub fn new(engine: &'e KelleEngine) -> Self {
        BatchScheduler::with_config(engine, SchedulerConfig::default())
    }

    /// A scheduler arbitrating the configured shared capacity.  A
    /// hand-assembled zero capacity is clamped to one byte, like in
    /// [`SchedulerConfig::with_kv_capacity_bytes`], and reported as such by
    /// the final [`ContentionMetrics::capacity_bytes`].
    pub fn with_config(engine: &'e KelleEngine, config: SchedulerConfig) -> Self {
        let config = SchedulerConfig {
            kv_capacity_bytes: config.kv_capacity_bytes.map(|bytes| bytes.max(1)),
            ..config
        };
        let chaos = config
            .chaos
            .filter(ChaosConfig::enabled)
            .map(ChaosPlan::new);
        BatchScheduler {
            engine,
            config,
            placement: KvPlacement::new(
                config.kv_capacity_bytes,
                config.tiering,
                &engine.platform().memory,
                chaos.as_ref(),
            ),
            arrivals: BTreeMap::new(),
            waiting: VecDeque::new(),
            fresh: 0,
            active: BTreeMap::new(),
            outcomes: Vec::new(),
            timings: Vec::new(),
            stats: EngineStats::default(),
            tick: 0,
            spill_bytes: 0,
            prefix: PrefixBatchMetrics::default(),
            chaos,
            chaos_metrics: ChaosMetrics::default(),
            pool: WorkerPool::default(),
            draining: false,
            parallel: ParallelMetrics::default(),
            shed_events: Vec::new(),
        }
    }

    /// The capacity ledger (live bytes, high-water mark, oversubscription).
    pub fn ledger(&self) -> &CapacityLedger {
        self.placement.ledger()
    }

    /// The tier placement manager, when tiering is enabled.
    pub fn tier(&self) -> Option<&TierManager> {
        self.placement.tiers()
    }

    /// Whether a drain (`begin_drain`) has
    /// stopped admission.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Pool-protocol traffic counters accumulated so far (`ticks` is
    /// only stamped on the final [`BatchOutcome`]).
    pub fn parallel_metrics(&self) -> &ParallelMetrics {
        &self.parallel
    }

    /// Drains the sheds recorded since the last call, in the order they
    /// happened — the streaming-path complement of the final outcome's
    /// [`ShedReason`]s.  [`run_with`](BatchScheduler::run_with) and the
    /// `kelle::front` streams are built on this.
    pub(crate) fn take_shed_events(&mut self) -> Vec<(usize, ShedReason)> {
        std::mem::take(&mut self.shed_events)
    }

    /// Pauses or resumes decode for an active request (stream backpressure:
    /// the `kelle::front` pauses a session whose consumer stopped polling).
    /// A paused slot is skipped by decode fan-out — its session stays
    /// resident where it is — and consumes no queue traffic until resumed.
    /// Pausing never changes a token stream, only when it is produced.
    /// Returns `false` when the request is not active.
    pub(crate) fn set_paused(&mut self, index: usize, paused: bool) -> bool {
        self.active
            .get_mut(&index)
            .map(|slot| slot.paused = paused)
            .is_some()
    }

    /// Full-scale KV footprint of `tokens` retained tokens — the unit of
    /// account of the capacity ledger, identical to what the hardware step
    /// simulation charges per token (capped at the hardware budget `N'`).
    pub(crate) fn kv_footprint_bytes(&self, tokens: usize) -> u64 {
        self.engine.kv_footprint_bytes(tokens)
    }

    /// `enqueue`s a request and immediately
    /// admits it on the scheduler's own
    /// one-shard [`WorkerPool`] (so with room available — always, when
    /// unbounded — the request is pre-filled right away).  Returns the
    /// request's index, which later [`StepEvent`]s, timings and the final
    /// outcome vector refer to.  Drive a scheduler submitted to this way
    /// with [`step`](BatchScheduler::step): its sessions live on its own
    /// pool.
    pub fn submit(&mut self, request: ServeRequest) -> usize {
        self.on_own_pool(|scheduler, pool| scheduler.submit_with(request, pool))
    }

    /// Runs `f` against the scheduler's own one-shard pool — the body of
    /// every entry point that takes no pool.
    fn on_own_pool<R>(&mut self, f: impl FnOnce(&mut Self, &mut WorkerPool<'e>) -> R) -> R {
        let mut pool = std::mem::take(&mut self.pool);
        let result = f(self, &mut pool);
        self.pool = pool;
        result
    }

    /// `enqueue`, then
    /// `admit_waiting` on `pool` — eager
    /// submission for a hand-driven scheduler: the call returns once the
    /// request's prefill has run, if it was admitted.  Callers that submit
    /// several requests between two ticks ([`KelleEngine::serve`], the
    /// [`front`](crate::front)) enqueue them all and admit once instead, so
    /// the prefills run side by side on the pool's shards; the resulting
    /// state is bit-identical either way.  Drive the scheduler through the
    /// same pool from here on: that is where its sessions live.
    pub fn submit_with(&mut self, request: ServeRequest, pool: &mut WorkerPool<'e>) -> usize {
        let index = self.enqueue(request);
        self.admit_waiting(pool);
        index
    }

    /// Registers a request — the first half of a submission, with no
    /// pool work — and returns its index.  The request joins the waiting
    /// queue ([`waiting`](BatchScheduler::waiting) counts it) and is offered
    /// to admission by the next [`admit_waiting`](BatchScheduler::admit_waiting),
    /// which every entry point that takes a pool runs before anything
    /// else: an enqueued request is admitted in the tick it was submitted in
    /// and decodes from the next, exactly like an eager
    /// [`submit_with`](BatchScheduler::submit_with).
    ///
    /// A request whose [`arrival_tick`](ServeRequest::arrival_tick) lies in
    /// the future is *scheduled* instead of queued: it stays invisible to
    /// admission until the tick clock reaches its arrival, at which point it
    /// joins the waiting queue exactly as if it had been submitted then
    /// (`submitted_tick` is its arrival, so queue-time and TTFT metrics
    /// measure from arrival).  This is how a whole workload trace is loaded
    /// up front and replayed deterministically.
    pub(crate) fn enqueue(&mut self, request: ServeRequest) -> usize {
        let index = self.outcomes.len();
        let arrival = request.arrival_tick();
        let future = arrival > self.tick;
        self.outcomes.push(None);
        self.timings.push(RequestTiming {
            submitted_tick: if future { arrival } else { self.tick },
            admitted_tick: 0,
            finished_tick: 0,
            first_token_tick: None,
            queue_ticks: 0,
            kv_bytes: 0,
            peak_concurrent_bytes: 0,
            granted_bytes: None,
            spill_bytes: 0,
        });
        if future {
            self.arrivals.insert((arrival, index), request);
        } else {
            self.waiting.push_back((index, request));
            self.fresh += 1;
        }
        index
    }

    /// Admits the requests [`enqueue`](BatchScheduler::enqueue)d since the
    /// last admission — the second half of a submission, and a no-op when
    /// there are none.  Admission decisions, ledger reservations and
    /// prefix-store planning stay on the calling thread; the planned
    /// prefills are handed to `pool` together, in one admit call, so they
    /// fan out over its shards — and each session stays where its prefill
    /// ran.
    ///
    /// The new requests are offered to the admission policy one at a time,
    /// in submission order — the candidate sequence (and ledger-blip draws)
    /// of one eager [`submit_with`](BatchScheduler::submit_with) per request
    /// — so batching changes wall-clock time and nothing else, under every
    /// [`AdmissionPolicy`] and [`ChaosConfig`].
    pub(crate) fn admit_waiting(&mut self, pool: &mut WorkerPool<'e>) {
        if self.fresh == 0 {
            return;
        }
        let fresh = self.waiting.split_off(self.waiting.len() - self.fresh);
        self.fresh = 0;
        let mut pending = Vec::new();
        for entry in fresh {
            self.waiting.push_back(entry);
            self.plan_admissions(&mut pending);
        }
        self.flush_admissions(pool, pending);
    }

    /// Number of requests currently decoding.
    pub fn active(&self) -> usize {
        self.active.len()
    }

    /// Number of requests still in the waiting queue.
    pub fn waiting(&self) -> usize {
        self.waiting.len()
    }

    /// Whether every submitted request has finished.  A request scheduled
    /// for a future arrival tick keeps the machine busy: stepping advances
    /// the clock through the idle gap until it arrives.
    pub fn is_idle(&self) -> bool {
        self.active.is_empty() && self.waiting.is_empty() && self.arrivals.is_empty()
    }

    /// Moves every scheduled request whose arrival tick has been reached
    /// into the waiting queue, in `(arrival, index)` order — the start-of-
    /// tick half of arrival-driven admission.  The end-of-tick admission
    /// pump promotes them, so a request arriving at tick `T` is admitted at
    /// `T` and decodes from `T + 1`, exactly like an eager submission at
    /// `T`.
    fn release_arrivals(&mut self) {
        while let Some(entry) = self.arrivals.first_entry() {
            if entry.key().0 > self.tick {
                break;
            }
            let ((_, index), request) = entry.remove_entry();
            self.waiting.push_back((index, request));
        }
    }

    /// Prefill KV footprint of a waiting request, split into the bytes the
    /// request will hold privately and the shared-prefix attachment it will
    /// make.  A prefix hit's matched tokens are charged through the ledger's
    /// shared pool — once per published prefix, however many requests attach
    /// — so admission sees the *true* device footprint.  (The full-scale
    /// footprint caps at the hardware budget `N'`; for prompts beyond it the
    /// shared/private split is proportional on capped bytes, a documented
    /// approximation.)
    fn footprint(&self, request: &ServeRequest) -> Footprint {
        let total = self.kv_footprint_bytes(request.prompt().len());
        let key = self.engine.prefix_key(request.policy(), request.seed());
        match self.engine.prefix_probe(request.prompt(), &key) {
            Some((tag, matched)) if matched > 0 => {
                let shared_bytes = self.kv_footprint_bytes(matched).min(total);
                Footprint {
                    private_bytes: total - shared_bytes,
                    shared: Some((tag, shared_bytes)),
                }
            }
            _ => Footprint {
                private_bytes: total,
                shared: None,
            },
        }
    }

    /// The waiting-queue position the admission policy offers next.
    fn next_candidate(&self) -> Option<usize> {
        let head = (!self.waiting.is_empty()).then_some(0);
        match self.config.admission {
            AdmissionPolicy::Fcfs => head,
            AdmissionPolicy::ShortestPromptFirst => self
                .waiting
                .iter()
                .enumerate()
                .min_by_key(|(_, (index, request))| (request.prompt().len(), *index))
                .map(|(pos, _)| pos),
            AdmissionPolicy::CapacityFit => self
                .waiting
                .iter()
                .position(|(_, request)| self.placement.fits(&self.footprint(request)))
                .or(head),
        }
    }

    /// Promotes waiting requests into decode slots while the ledger can host
    /// their prefill footprint, in the order the admission policy dictates.
    /// When nothing is active and nothing fits, the next candidate is
    /// force-admitted so a request larger than the whole capacity still makes
    /// progress instead of deadlocking the queue.
    ///
    /// Admission is a two-phase pipeline so prefill compute can fan out to
    /// a pool's shards without changing any observable state:
    ///
    /// 1. **Commit (coordinator, admission order)** — candidate selection,
    ///    ledger reservation, shared-pool attachment and the session's
    ///    prefix-store *plan* ([`Session::plan_prefill`]) all happen here,
    ///    in exactly the sequence single-threaded serving performs them.
    /// 2. **Execute (any worker)** — the planned prefills run concurrently
    ///    in one admit call on the pool; no plan touches shared state.
    fn pump_admission(&mut self, pool: &mut WorkerPool<'e>) {
        let mut pending = Vec::new();
        self.plan_admissions(&mut pending);
        self.flush_admissions(pool, pending);
    }

    /// The commit phase of [`pump_admission`](Self::pump_admission): plans
    /// admissions onto `pending` until the queue is empty or its next
    /// candidate has to wait.
    fn plan_admissions(&mut self, pending: &mut Pending<'e>) {
        if self.draining {
            // A draining scheduler stops admitting; whatever is active
            // finishes, everything else stays queued (or was already shed by
            // the drain entry point).
            return;
        }
        while let Some(queue_pos) = self.next_candidate() {
            let footprint = self.footprint(&self.waiting[queue_pos].1);
            let fits = self.placement.fits(&footprint);
            let busy = !self.active.is_empty() || !pending.is_empty();
            if fits && busy && self.chaos.as_mut().is_some_and(ChaosPlan::ledger_blip) {
                // Transient reservation failure: the candidate stays queued
                // and retries on a later pump.  Blips never fire on an empty
                // machine (mirroring force-admission's forward-progress
                // guarantee), so a blipped request is only ever delayed —
                // its stream, faults and hardware report stay bit-identical.
                self.chaos_metrics.ledger_blips += 1;
                break;
            }
            // Forward-progress guarantee: an empty machine admits the
            // candidate even if it oversubscribes on its own.  Under tiering
            // an oversized session lands in eDRAM anyway; the rebalance
            // demotes it and promote-before-tick swaps it back up each step,
            // modelling the migration cost of running beyond the on-chip
            // memory.
            if !fits && busy {
                break;
            }
            let Some((index, request)) = self.waiting.remove(queue_pos) else {
                break;
            };
            let lease = self.placement.admit(index, &footprint, self.tick);
            self.commit_admission(index, request, lease, footprint.shared, pending);
        }
    }

    /// Commits the admission of a waiting request: opens the session, plans
    /// its first prefill against the prefix store (coordinator-side, in
    /// admission order) and queues session and plan for the pool.
    fn commit_admission(
        &mut self,
        index: usize,
        request: ServeRequest,
        lease: LeaseId,
        shared: Option<(u64, u64)>,
        pending: &mut Pending<'e>,
    ) {
        let mut session = self.engine.open_session_for(&request);
        let plan = session.plan_prefill(request.prompt());
        let timing = &mut self.timings[index];
        timing.admitted_tick = self.tick;
        timing.queue_ticks = self.tick - timing.submitted_tick;
        let admission = Admission::new(index, session, request.prompt().to_vec(), plan);
        let admitted = Admitted {
            index,
            request,
            lease,
            shared,
            live_at_admission: self.placement.ledger().live_bytes(),
        };
        pending.push((admission, admitted));
    }

    /// Executes all pending admission prefills in one admit call on `pool`
    /// and activates their slots in submission order.
    fn flush_admissions(&mut self, pool: &mut WorkerPool<'e>, pending: Pending<'e>) {
        if pending.is_empty() {
            return;
        }
        let (admissions, mut admitted): (Vec<_>, Vec<_>) = pending.into_iter().unzip();
        // A crashed prefill has no committed state to replay from: its panic
        // resurfaces on the coordinator — after the whole batch has been
        // answered, so a caller that catches it keeps a reusable pool.
        let mut prefilled: Vec<Prefilled> = pool
            .admit(admissions)
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap_or_else(|failure| {
                panic!(
                    "admission prefill of request {} panicked: {}",
                    failure.index(),
                    failure.message()
                )
            });
        // The pool answers every admission exactly once.
        prefilled.sort_by_key(|prefilled| prefilled.index);
        admitted.sort_by_key(|admitted| admitted.index);
        for (admitted, prefilled) in admitted.into_iter().zip(prefilled) {
            self.activate(admitted, prefilled);
        }
    }

    /// Opens the decode slot of an admitted request whose pre-filled session
    /// is now resident on its pool shard.
    fn activate(&mut self, admitted: Admitted, prefilled: Prefilled) {
        let Admitted {
            index,
            request,
            lease,
            shared,
            live_at_admission,
        } = admitted;
        if prefilled.prefix_hit_tokens > 0 {
            self.prefix.hit_requests += 1;
            self.prefix.hit_tokens += prefilled.prefix_hit_tokens as u64;
        }
        // The session crossed to its shard with its prefill; it stays.
        self.parallel.queue_crossings += 1;
        let slot = Slot {
            prefilled: prefilled.computed,
            generated: Vec::with_capacity(request.decode_len()),
            request,
            trace: DecodeTrace::default(),
            lease,
            peak_concurrent_bytes: live_at_admission,
            shared,
            paused: false,
            worker: prefilled.worker,
        };
        self.active.insert(index, slot);
    }

    /// Runs one decode step for every active request, in submission order.
    /// Returns one [`StepEvent`] per request that made progress (every active
    /// request does — the fairness property the tests assert).  Completed
    /// requests release their capacity and the waiting queue is back-filled
    /// before the call returns.  Steps the sessions on the scheduler's own
    /// pool, where [`submit`](BatchScheduler::submit) put them.
    pub fn step(&mut self) -> Vec<StepEvent> {
        self.on_own_pool(|scheduler, pool| scheduler.try_step_with(pool))
            .unwrap_or_else(|error| panic!("{error}"))
    }

    /// [`step`](BatchScheduler::step) with the per-session decode compute
    /// fanned out over `pool` — the tick protocol of the threaded
    /// front-end (see [`crate::parallel`] and the [module docs](self) for
    /// the phases).  Every observable — events, metrics, f64 accumulation
    /// order — matches [`step`](BatchScheduler::step) exactly; only
    /// wall-clock time differs.
    pub fn step_with(&mut self, pool: &mut WorkerPool<'e>) -> Vec<StepEvent> {
        match self.try_step_with(pool) {
            Ok(events) => events,
            Err(error) => panic!("{error}"),
        }
    }

    /// Fallible [`step_with`](BatchScheduler::step_with): one tick, as the
    /// phase list of the [module docs](self).  A worker loss that exhausts
    /// the chaos retry budget surfaces as [`ServeError::WorkerLost`] instead
    /// of a panic.  Even on `Err` the scheduler stays consistent — the lost
    /// request is finalized with its partial output
    /// ([`ShedReason::WorkerLost`]), every lease and tier placement is
    /// released, and stepping/draining can continue.
    pub fn try_step_with(
        &mut self,
        pool: &mut WorkerPool<'e>,
    ) -> Result<Vec<StepEvent>, ServeError> {
        self.admit_waiting(pool);
        self.tick += 1;
        self.release_arrivals();
        self.shed_expired(pool);
        let (steps, lost, attempts) = self.fan_out(pool);
        let events = self.commit(steps);
        let retired = self.retire(lost, attempts, pool);
        self.placement.settle(self.tick);
        // Freed capacity back-fills the waiting queue; the newly admitted
        // requests are pre-filled now and decode from the next tick.
        self.pump_admission(pool);
        retired.map(|()| events)
    }

    /// Sheds requests whose deadline or queue-wait budget expired, at the
    /// start of the tick (before any decode compute is spent on them), in
    /// request-index order whichever queue they sit in.
    fn shed_expired(&mut self, pool: &mut WorkerPool<'e>) {
        let tick = self.tick;
        let timings = &self.timings;
        let elapsed = |index: usize| tick.saturating_sub(timings[index].submitted_tick);
        let timed_out = self
            .waiting
            .iter()
            .filter(|(index, request)| {
                request
                    .queue_timeout_ticks()
                    .is_some_and(|t| elapsed(*index) > t)
            })
            .map(|&(index, _)| (index, ShedReason::QueueTimeout));
        let overdue = self
            .active
            .iter()
            .filter(|(&index, slot)| {
                slot.request
                    .deadline_ticks()
                    .is_some_and(|d| elapsed(index) > d)
            })
            .map(|(&index, _)| (index, ShedReason::DeadlineExceeded));
        let mut expired: Vec<(usize, ShedReason)> = timed_out.chain(overdue).collect();
        expired.sort_unstable_by_key(|&(index, _)| index);
        for (index, reason) in expired {
            self.chaos_metrics.shed_requests += 1;
            self.shed(index, reason, pool);
        }
    }

    /// Promote-before-tick and the decode fan-out.  Every unpaused active
    /// session is promoted back on chip if a rebalance demoted it (cost
    /// charged), then stepped where it lives; sessions are mutually
    /// independent, so shards may run them in any order.  Under chaos each
    /// first attempt checkpoints the boundary it leaves, and steps that
    /// panicked are re-issued on their restored sessions at most
    /// [`max_retries`](ChaosConfig::max_retries) times.  Returns the
    /// surviving steps and the steps still lost, both in request-index
    /// order, and the executions attempted per lost step.
    fn fan_out(&mut self, pool: &mut WorkerPool<'e>) -> (Vec<ResidentStep>, Vec<TaskFailure>, u32) {
        // Backpressured slots sit the tick out, resident where they are —
        // zero queue traffic.
        let running: Vec<usize> = self
            .active
            .iter()
            .filter(|(_, slot)| !slot.paused)
            .map(|(&index, _)| index)
            .collect();
        for &index in &running {
            self.placement.promote(index, self.tick);
        }
        let mut requests: Vec<StepRequest> = running
            .into_iter()
            .map(|index| self.step_request(index, 0))
            .collect();
        // No chaos, no replay budget: a panicked session has no checkpoint.
        let max_retries = self
            .chaos
            .as_ref()
            .map_or(0, |plan| plan.config().max_retries);
        let mut attempt = 0u32;
        let mut steps: Vec<ResidentStep> = Vec::with_capacity(requests.len());
        let mut lost = Vec::new();
        loop {
            for result in pool.step(&requests) {
                match result {
                    Ok(step) => steps.push(step),
                    Err(failure) => {
                        if self.chaos.is_some() {
                            // The shard put the checkpoint back in place.
                            self.chaos_metrics.restored_sessions += 1;
                        }
                        lost.push(failure);
                    }
                }
            }
            lost.sort_by_key(TaskFailure::index);
            if lost.is_empty() || attempt == max_retries {
                break;
            }
            // Replay: re-issuing the step on the restored session recomputes
            // the very decode step the lost execution would have committed.
            // One modelled backoff tick per round; the functional tick
            // counter must stay chaos-invariant, so this is metrics only.
            attempt += 1;
            self.chaos_metrics.backoff_ticks += 1;
            requests.clear();
            for failure in lost.drain(..) {
                self.chaos_metrics.replayed_steps += 1;
                requests.push(self.step_request(failure.index(), attempt));
            }
        }
        steps.sort_by_key(|step| step.index);
        (steps, lost, attempt + 1)
    }

    /// This tick's step request for `index`, execution `attempt`: under
    /// chaos the first attempt checkpoints the boundary it leaves, and any
    /// attempt the [`ChaosPlan`] marks is sabotaged.
    fn step_request(&mut self, index: usize, attempt: u32) -> StepRequest {
        let sabotage = self
            .chaos
            .as_ref()
            .is_some_and(|plan| plan.worker_panic(self.tick, index, attempt));
        if sabotage {
            self.chaos_metrics.injected_panics += 1;
        }
        let checkpoint = self.chaos.is_some() && attempt == 0;
        if checkpoint {
            self.chaos_metrics.checkpoints_taken += 1;
        }
        StepRequest {
            index,
            checkpoint,
            sabotage,
        }
    }

    /// Commits the tick's steps in request-index order — tokens, traces and
    /// first-token ticks, the tick's lease growth as one placement commit —
    /// then records the concurrency every active request experienced.
    fn commit(&mut self, steps: Vec<ResidentStep>) -> Vec<StepEvent> {
        let engine = self.engine;
        let mut events = Vec::with_capacity(steps.len());
        let mut growths = Vec::with_capacity(steps.len());
        let mut steps = steps.into_iter().peekable();
        for (&index, slot) in &mut self.active {
            let Some(ResidentStep {
                step,
                tokens_before,
                position,
                worker,
                ..
            }) = steps.next_if(|step| step.index == index)
            else {
                continue;
            };
            // Grow the lease by the decoded token's full-scale KV bytes
            // (zero once the hardware budget N' saturates).
            let growth = engine
                .kv_footprint_bytes(position)
                .saturating_sub(engine.kv_footprint_bytes(tokens_before));
            growths.push((index, slot.lease, growth));
            slot.generated.push(step.token);
            if slot.generated.len() == 1 {
                self.timings[index].first_token_tick = Some(self.tick);
            }
            slot.trace.steps.push(step.record);
            if worker != slot.worker {
                self.parallel.sessions_migrated += 1;
            }
            events.push(StepEvent {
                request: index,
                token: step.token,
                finished: slot.is_complete(),
            });
        }
        self.placement.grow(&growths, self.tick);
        let live = self.placement.ledger().live_bytes();
        for slot in self.active.values_mut() {
            slot.peak_concurrent_bytes = slot.peak_concurrent_bytes.max(live);
        }
        events
    }

    /// Finalizes the tick's completions, then sheds its losses, each in
    /// request-index order.  Under chaos the shard restored every lost
    /// session to its last committed state, so the shed takes back a real
    /// partial turn to finalize.  The first loss is the tick's error; the
    /// scheduler itself stays consistent either way.
    fn retire(
        &mut self,
        lost: Vec<TaskFailure>,
        attempts: u32,
        pool: &mut WorkerPool<'e>,
    ) -> Result<(), ServeError> {
        let completed: Vec<(usize, Slot)> = self
            .active
            .extract_if(.., |_, slot| slot.is_complete())
            .collect();
        for (index, slot) in completed {
            self.finalize_active(index, slot, None, pool);
        }
        let error = lost.first().map(|failure| ServeError::WorkerLost {
            request: failure.index(),
            attempts,
            message: failure.message().to_string(),
        });
        for failure in lost {
            self.chaos_metrics.lost_requests += 1;
            self.shed(failure.index(), ShedReason::WorkerLost, pool);
        }
        error.map_or(Ok(()), Err)
    }

    /// Sheds request `index` for `reason` from wherever it is — decoding,
    /// waiting or scheduled.  Returns `false` when it already finished or
    /// was never submitted.
    fn shed(&mut self, index: usize, reason: ShedReason, pool: &mut WorkerPool<'e>) -> bool {
        if let Some(slot) = self.active.remove(&index) {
            self.finalize_active(index, slot, Some(reason), pool);
            return true;
        }
        let queued = match self.waiting.iter().position(|&(i, _)| i == index) {
            Some(pos) => self.waiting.remove(pos).is_some(),
            None => self.timings.get(index).is_some_and(|timing| {
                self.arrivals
                    .remove(&(timing.submitted_tick, index))
                    .is_some()
            }),
        };
        if queued {
            self.finalize(index, None, Some(reason));
        }
        queued
    }

    /// Takes an active slot's session back from `pool` (one queue crossing)
    /// and finalizes the request.
    fn finalize_active(
        &mut self,
        index: usize,
        slot: Slot,
        shed: Option<ShedReason>,
        pool: &mut WorkerPool<'e>,
    ) {
        let session = pool.take(index);
        if session.is_some() {
            self.parallel.queue_crossings += 1;
        }
        self.finalize(index, Some((slot, session)), shed);
    }

    /// The one way a request leaves the scheduler: completed (`shed` is
    /// `None`) or shed for `shed`'s reason.  An admitted request releases
    /// everything it held, and its turn is finalized for real — hardware
    /// simulation, engine statistics — when its session came back and it has
    /// tokens to show; a completed request is also costed under the
    /// contention it experienced.  Anything else (never admitted, no tokens,
    /// or a session lost with no checkpoint) gets a synthetic outcome.
    fn finalize(
        &mut self,
        index: usize,
        admitted: Option<(Slot, Option<Session<'e>>)>,
        shed: Option<ShedReason>,
    ) {
        let outcome = match admitted {
            None => {
                let timing = &mut self.timings[index];
                // A drained future arrival can be shed before its arrival
                // tick: it never queued, so its queue time saturates to zero.
                timing.queue_ticks = self.tick.saturating_sub(timing.submitted_tick);
                Self::synthetic_outcome(Vec::new(), DecodeTrace::default(), shed)
            }
            Some((slot, session)) => {
                let kv_bytes = self.placement.release(index, slot.lease, slot.shared);
                let (granted, spill) = match shed {
                    None => self.grant(kv_bytes, slot.peak_concurrent_bytes, slot.shared),
                    Some(_) => (None, 0),
                };
                let timing = &mut self.timings[index];
                timing.kv_bytes = kv_bytes;
                timing.peak_concurrent_bytes = slot.peak_concurrent_bytes;
                timing.granted_bytes = granted;
                timing.spill_bytes = spill;
                self.spill_bytes += spill;
                let Slot {
                    request,
                    prefilled,
                    generated,
                    trace,
                    ..
                } = slot;
                match session {
                    Some(mut session) if shed.is_none() || !generated.is_empty() => {
                        let decode_len = generated.len();
                        let turn = session.finish_turn(
                            generated,
                            trace,
                            prefilled,
                            decode_len,
                            request.label(),
                            granted,
                        );
                        self.stats = self.stats.merged(EngineStats::from_turn(&turn));
                        ServeOutcome {
                            shed,
                            ..ServeOutcome::from(turn)
                        }
                    }
                    _ => Self::synthetic_outcome(generated, trace, shed),
                }
            }
        };
        self.timings[index].finished_tick = self.tick;
        if let Some(reason) = shed {
            self.shed_events.push((index, reason));
        }
        self.outcomes[index] = Some(outcome);
    }

    /// The on-chip residency granted to a completed request and the bytes it
    /// spilled.  Uncontended (peak within the arbitrated capacity), the
    /// request is costed like a single tenant: the whole KV memory (`None`).
    /// Under contention it gets its proportional slice `my_bytes / peak` of
    /// the on-chip KV memory (further bounded by the arbitrated capacity, so
    /// a budget below the physical memory models a smaller device), and the
    /// bytes that thereby lose on-chip residency are the spill the outcome
    /// reports — they are charged at DRAM access cost.
    ///
    /// A shared prefix attachment is resident once on behalf of *all* its
    /// sessions, so it rides on top of the proportional private grant
    /// (clamped to the on-chip size); the proportional split itself runs
    /// over private bytes only, keeping Σ private grants ≤ on-chip.
    fn grant(&self, kv_bytes: u64, peak: u64, shared: Option<(u64, u64)>) -> (Option<u64>, u64) {
        let capacity = self.placement.ledger().capacity_bytes();
        if peak <= capacity {
            return (None, 0);
        }
        let physical = self.engine.platform().memory.kv_memory.capacity_bytes;
        let shared_bytes = shared.map_or(0, |(_, bytes)| bytes);
        let onchip = capacity.min(physical);
        let granted = ((onchip as u128 * kv_bytes as u128) / peak as u128) as u64;
        let uncontended_resident = kv_bytes.min(physical);
        let contended_resident = kv_bytes.min(granted);
        (
            Some((granted + shared_bytes).min(onchip)),
            uncontended_resident - contended_resident,
        )
    }

    /// An outcome for a request finalized with `generated` tokens that never
    /// went through the hardware simulation (nothing was decoded, or the
    /// session was lost with no checkpoint to finalize from).
    fn synthetic_outcome(
        generated: Vec<usize>,
        trace: DecodeTrace,
        shed: Option<ShedReason>,
    ) -> ServeOutcome {
        ServeOutcome {
            generated,
            cache: CacheStats::default(),
            faults: FaultStats::default(),
            trace,
            hardware: PlatformReport {
                platform: String::new(),
                workload: "shed",
                prefill: PhaseMetrics::default(),
                decode: PhaseMetrics::default(),
            },
            prefilled_tokens: 0,
            prefix_hit_tokens: 0,
            shed,
        }
    }

    /// Cancels a request mid-stream, taking its session back from `pool` so
    /// the partial turn finalizes for real.  A waiting request is finalized
    /// unserved; an active one keeps the tokens it generated so far (its
    /// outcome is marked [`ShedReason::Cancelled`]) and releases all
    /// capacity immediately.  Returns `false` when the index is unknown or
    /// the request already finished.  Requests enqueued since the last tick
    /// are admitted first: the cancelled one is shed from the state an eager
    /// submission would have put it in.
    pub fn cancel_with(&mut self, request: usize, pool: &mut WorkerPool<'e>) -> bool {
        self.admit_waiting(pool);
        let cancelled = self.shed(request, ShedReason::Cancelled, pool);
        if cancelled {
            self.chaos_metrics.cancelled_requests += 1;
        }
        cancelled
    }

    /// Gracefully drains the scheduler, stepping through `pool`: admission
    /// stops, every waiting request is finalized unserved
    /// ([`ShedReason::Drained`]) and the active ones are stepped to
    /// completion.  On return the scheduler is idle and every lease, tier
    /// placement and shared-prefix reference has been released —
    /// [`finish`](BatchScheduler::finish) cannot fail.  Draining is
    /// terminal: requests submitted afterwards queue forever.  A
    /// [`ServeError::WorkerLost`] mid-drain sheds the lost request and
    /// surfaces the error; calling again resumes the wind-down.
    pub fn drain_with(&mut self, pool: &mut WorkerPool<'e>) -> Result<(), ServeError> {
        self.admit_waiting(pool);
        self.begin_drain();
        while !self.active.is_empty() {
            self.try_step_with(pool)?;
        }
        Ok(())
    }

    /// The non-blocking half of [`drain_with`](BatchScheduler::drain_with):
    /// stops admission, sheds every waiting request as
    /// [`ShedReason::Drained`] and resumes any backpressure-paused slot so
    /// the wind-down cannot stall — but does **not** step the active
    /// sessions.  A request
    /// [`enqueue`](BatchScheduler::enqueue)d and not yet admitted counts as
    /// waiting and is shed too.  Keep calling
    /// [`try_step_with`](BatchScheduler::try_step_with) until
    /// [`is_idle`](BatchScheduler::is_idle); this is what the front-end's
    /// cooperative [`drain`](crate::front::ServingFront::drain) does.
    pub(crate) fn begin_drain(&mut self) {
        self.draining = true;
        self.fresh = 0;
        // The queue in order, then future arrivals (which never run on a
        // draining scheduler) in arrival order, so the wind-down reaches
        // idle.
        let waiting = std::mem::take(&mut self.waiting)
            .into_iter()
            .map(|(index, _)| index);
        let arrivals = std::mem::take(&mut self.arrivals)
            .into_keys()
            .map(|(_, index)| index);
        for index in waiting.chain(arrivals) {
            self.chaos_metrics.drained_requests += 1;
            self.finalize(index, None, Some(ShedReason::Drained));
        }
        for slot in self.active.values_mut() {
            slot.paused = false;
        }
    }

    /// Drives [`try_step_with`](BatchScheduler::try_step_with) until every
    /// submitted request has finished, delivering the [`ServeEvent`] stream
    /// from the coordinating thread: tokens as they commit, in the order
    /// single-threaded serving would deliver them, **and** sheds (deadline,
    /// queue timeout, cancellation, drain, worker loss) as they happen.
    /// Within a tick tokens are delivered before that tick's sheds, both in
    /// request-index order.
    ///
    /// # Errors
    ///
    /// An unrecoverable worker loss aborts the drive with
    /// [`ServeError::WorkerLost`]; the lost request was already finalized
    /// with its partial output (and its shed delivered), but the remaining
    /// in-flight work is dropped with the scheduler — callers that must not
    /// lose the batch should step/drain a scheduler they own instead.
    pub fn run_with(
        mut self,
        pool: &mut WorkerPool<'e>,
        mut on_event: impl FnMut(ServeEvent),
    ) -> Result<BatchOutcome, ServeError> {
        for (request, reason) in self.take_shed_events() {
            on_event(ServeEvent::Shed { request, reason });
        }
        while !self.is_idle() {
            let stepped = self.try_step_with(pool);
            // Sheds recorded this tick are delivered even when the tick
            // itself failed with a worker loss.
            let events = match &stepped {
                Ok(events) => events.as_slice(),
                Err(_) => &[],
            };
            for event in events {
                on_event(ServeEvent::Token {
                    request: event.request,
                    token: event.token,
                    finished: event.finished,
                });
            }
            for (request, reason) in self.take_shed_events() {
                on_event(ServeEvent::Shed { request, reason });
            }
            stepped?;
        }
        Ok(self
            .finish()
            .expect("scheduler is idle, finish cannot fail"))
    }

    /// Collects the per-request outcomes and the batch aggregate.
    ///
    /// Returns [`BatchIncomplete`] if any submitted request is still waiting
    /// or decoding; the error hands the scheduler back
    /// ([`BatchIncomplete::resume`]) so the batch can still be driven with
    /// [`step`](BatchScheduler::step) (or [`step_with`](BatchScheduler::step_with)
    /// on the pool it was submitted to) until
    /// [`is_idle`](BatchScheduler::is_idle) — or use
    /// [`run_with`](BatchScheduler::run_with) and never deal with the error
    /// at all.
    pub fn finish(self) -> Result<BatchOutcome, BatchIncomplete<'e>> {
        if !self.is_idle() {
            return Err(BatchIncomplete {
                active: self.active(),
                waiting: self.waiting.len(),
                scheduler: Box::new(self),
            });
        }
        // Idle: every request was finalized.
        let outcomes: Vec<ServeOutcome> = self.outcomes.into_iter().flatten().collect();
        let slo = Self::slo_report(self.config.slo, &self.timings, &outcomes, self.tick);
        let contention = ContentionMetrics {
            capacity_bytes: self.config.kv_capacity_bytes,
            peak_residency_bytes: self.placement.ledger().high_water_bytes(),
            spill_bytes: self.spill_bytes,
            total_queue_ticks: self.timings.iter().map(|t| t.queue_ticks).sum(),
            max_queue_ticks: self
                .timings
                .iter()
                .map(|t| t.queue_ticks)
                .max()
                .unwrap_or(0),
            per_request: self.timings,
        };
        let mut parallel = self.parallel;
        parallel.ticks = self.tick;
        Ok(BatchOutcome {
            outcomes,
            stats: self.stats,
            contention,
            prefix: PrefixBatchMetrics {
                shared_bytes: self.placement.shared_charged_bytes(),
                deduplicated_bytes: self.placement.ledger().dedup_savings_bytes(),
                ..self.prefix
            },
            tiering: self.placement.tiering_metrics(),
            chaos: self.chaos_metrics,
            parallel,
            slo,
        })
    }

    /// Derives the batch's [`SloReport`] from the per-request timings and
    /// outcomes.  Pure tick arithmetic: no wall-clock enters, so the report
    /// is bit-identical across worker counts.
    fn slo_report(
        spec: SloSpec,
        timings: &[RequestTiming],
        outcomes: &[ServeOutcome],
        ticks: u64,
    ) -> SloReport {
        let mut ttfts = Vec::with_capacity(outcomes.len());
        let mut tpots = Vec::with_capacity(outcomes.len());
        let mut queues = Vec::with_capacity(outcomes.len());
        let mut report = SloReport {
            spec,
            requests: outcomes.len() as u64,
            ticks,
            ..SloReport::default()
        };
        for (timing, outcome) in timings.iter().zip(outcomes) {
            let tokens = outcome.generated.len() as u64;
            report.total_tokens += tokens;
            queues.push(timing.queue_ticks as f64);
            let ttft = timing
                .first_token_tick
                .map(|first| first - timing.submitted_tick);
            if let Some(ttft) = ttft {
                ttfts.push(ttft as f64);
            }
            if outcome.shed.is_some() {
                report.shed += 1;
                continue;
            }
            report.completed += 1;
            let tpot = match (timing.first_token_tick, tokens) {
                (Some(first), 2..) => {
                    Some((timing.finished_tick - first) as f64 / (tokens - 1) as f64)
                }
                _ => None,
            };
            if let Some(tpot) = tpot {
                tpots.push(tpot);
            }
            if ttft.is_some_and(|ttft| spec.met_by(ttft, tpot)) {
                report.goodput_requests += 1;
                report.goodput_tokens += tokens;
            }
        }
        report.ttft = LatencySummary::from_samples(ttfts);
        report.tpot = LatencySummary::from_samples(tpots);
        report.queue = LatencySummary::from_samples(queues);
        report
    }
}

impl std::fmt::Debug for BatchScheduler<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchScheduler")
            .field("submitted", &self.outcomes.len())
            .field("waiting", &self.waiting.len())
            .field("active", &self.active())
            .field("live_bytes", &self.placement.ledger().live_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;

    fn engine() -> KelleEngine {
        KelleEngine::new(EngineConfig::default())
    }

    /// Steps a scheduler fed through [`BatchScheduler::submit`] until it is
    /// idle and collects its outcome.
    fn run(mut scheduler: BatchScheduler<'_>) -> BatchOutcome {
        while !scheduler.is_idle() {
            scheduler.step();
        }
        scheduler.finish().expect("idle")
    }

    #[test]
    fn scheduler_round_robins_until_done() {
        let engine = engine();
        let mut scheduler = BatchScheduler::new(&engine);
        scheduler.submit(ServeRequest::new(vec![1, 2, 3], 2));
        scheduler.submit(ServeRequest::new(vec![4, 5, 6], 4));
        assert_eq!(scheduler.active(), 2);
        assert_eq!(scheduler.waiting(), 0);

        // Both requests progress in the first two steps; only the longer one
        // afterwards.
        let s1 = scheduler.step();
        assert_eq!(s1.len(), 2);
        let s2 = scheduler.step();
        assert_eq!(s2.len(), 2);
        assert!(s2.iter().any(|e| e.request == 0 && e.finished));
        let s3 = scheduler.step();
        assert_eq!(s3.len(), 1);
        assert_eq!(s3[0].request, 1);
        scheduler.step();
        assert!(scheduler.is_idle());

        let outcome = scheduler.finish().expect("batch is idle");
        assert_eq!(outcome.outcomes.len(), 2);
        assert_eq!(outcome.outcomes[0].generated.len(), 2);
        assert_eq!(outcome.outcomes[1].generated.len(), 4);
        assert_eq!(outcome.stats.requests, 2);
        assert_eq!(outcome.stats.tokens_generated, 6);
        // Unbounded: nobody queued, nothing spilled, but the high-water mark
        // still saw both requests' bytes.
        assert_eq!(outcome.contention.total_queue_ticks, 0);
        assert_eq!(outcome.contention.spill_bytes, 0);
        assert!(outcome.contention.peak_residency_bytes > 0);
        assert!(outcome
            .contention
            .per_request
            .iter()
            .all(|t| t.kv_bytes > 0));
    }

    #[test]
    fn finish_before_idle_is_a_recoverable_error() {
        let engine = engine();
        let mut scheduler = BatchScheduler::new(&engine);
        scheduler.submit(ServeRequest::new(vec![1, 2], 3));
        let err = scheduler.finish().unwrap_err();
        assert_eq!((err.active, err.waiting), (1, 0));
        assert!(err.to_string().contains("1 request(s) still decoding"));
        // Nothing in flight was lost: the scheduler comes back out of the
        // error and the batch still completes.
        let outcome = run(err.resume());
        assert_eq!(outcome.outcomes[0].generated.len(), 3);
    }

    #[test]
    fn zero_capacity_is_clamped_not_a_panic() {
        let config = SchedulerConfig::default().with_kv_capacity_bytes(0);
        assert_eq!(config.kv_capacity_bytes, Some(1));
        // A hand-assembled zero is clamped at construction too.
        let engine = engine();
        let raw = SchedulerConfig {
            kv_capacity_bytes: Some(0),
            admission: AdmissionPolicy::Fcfs,
            tiering: None,
            chaos: None,
            slo: SloSpec::default(),
        };
        let scheduler = BatchScheduler::with_config(&engine, raw);
        assert_eq!(scheduler.ledger().capacity_bytes(), 1);
        // ...and reported as the one byte the ledger runs at.
        assert_eq!(scheduler.config.kv_capacity_bytes, Some(1));
        let outcome = scheduler.finish().expect("nothing was submitted");
        assert_eq!(outcome.contention.capacity_bytes, Some(1));
    }

    #[test]
    fn bounded_capacity_queues_and_backfills() {
        let engine = engine();
        // Room for exactly one 4-token prompt at a time (the second request's
        // decode growth will oversubscribe, which is allowed).
        let capacity = engine.kv_footprint_bytes(4);
        let config = SchedulerConfig::default().with_kv_capacity_bytes(capacity);
        let mut scheduler = BatchScheduler::with_config(&engine, config);
        scheduler.submit(ServeRequest::new(vec![1, 2, 3, 4], 2));
        scheduler.submit(ServeRequest::new(vec![5, 6, 7, 8], 2));
        // Only the first fits; the second waits.
        assert_eq!(scheduler.active(), 1);
        assert_eq!(scheduler.waiting(), 1);

        let s1 = scheduler.step();
        assert_eq!(s1.len(), 1);
        let s2 = scheduler.step();
        assert!(s2[0].finished);
        // The release back-filled the queue within the same step call.
        assert_eq!(scheduler.active(), 1);
        assert_eq!(scheduler.waiting(), 0);
        scheduler.step();
        scheduler.step();
        assert!(scheduler.is_idle());
        let outcome = scheduler.finish().expect("batch is idle");
        let timing = &outcome.contention.per_request[1];
        assert_eq!(timing.queue_ticks, 2);
        assert_eq!(outcome.contention.total_queue_ticks, 2);
        assert_eq!(outcome.contention.max_queue_ticks, 2);
    }

    #[test]
    fn oversized_request_is_force_admitted() {
        let engine = engine();
        // Capacity smaller than even a single token's footprint.
        let config = SchedulerConfig::default().with_kv_capacity_bytes(1);
        let mut scheduler = BatchScheduler::with_config(&engine, config);
        scheduler.submit(ServeRequest::new(vec![1, 2, 3], 2));
        assert_eq!(scheduler.active(), 1, "empty machine must force-admit");
        let outcome = run(scheduler);
        assert_eq!(outcome.outcomes[0].generated.len(), 2);
        // Everything beyond the 1-byte capacity spilled.
        assert!(outcome.contention.spill_bytes > 0);
        let timing = &outcome.contention.per_request[0];
        assert_eq!(timing.granted_bytes, Some(1));
    }

    #[test]
    fn shortest_prompt_first_overtakes() {
        let engine = engine();
        let capacity = engine.kv_footprint_bytes(8);
        let config = SchedulerConfig::default()
            .with_kv_capacity_bytes(capacity)
            .with_admission(AdmissionPolicy::ShortestPromptFirst);
        let mut scheduler = BatchScheduler::with_config(&engine, config);
        // The 8-token prompt fills the machine; then a long and a short
        // request queue behind it.
        scheduler.submit(ServeRequest::new(vec![1; 8], 1));
        scheduler.submit(ServeRequest::new(vec![2; 6], 1));
        scheduler.submit(ServeRequest::new(vec![3; 2], 1));
        assert_eq!(scheduler.waiting(), 2);
        let outcome = run(scheduler);
        let timings = &outcome.contention.per_request;
        // The short prompt (submitted last) was admitted no later than the
        // 6-token one.
        assert!(timings[2].admitted_tick <= timings[1].admitted_tick);
        // Outcomes stay in submission order regardless of admission order.
        assert_eq!(outcome.outcomes[0].generated.len(), 1);
        assert_eq!(outcome.outcomes.len(), 3);
    }

    #[test]
    fn capacity_fit_skips_blocked_head() {
        let engine = engine();
        let capacity = engine.kv_footprint_bytes(8);
        let config = SchedulerConfig::default()
            .with_kv_capacity_bytes(capacity)
            .with_admission(AdmissionPolicy::CapacityFit);
        let mut scheduler = BatchScheduler::with_config(&engine, config);
        // 6 tokens active; a 7-token head would need 13 total, but the
        // 2-token request behind it fits alongside.
        scheduler.submit(ServeRequest::new(vec![1; 6], 4));
        scheduler.submit(ServeRequest::new(vec![2; 7], 1));
        scheduler.submit(ServeRequest::new(vec![3; 2], 1));
        assert_eq!(scheduler.active(), 2, "first-fit admits around the head");
        let outcome = run(scheduler);
        let timings = &outcome.contention.per_request;
        assert_eq!(timings[2].queue_ticks, 0);
        assert!(timings[1].queue_ticks > 0);
    }

    #[test]
    fn shared_prefix_is_charged_once_across_the_batch() {
        use crate::prefix::PrefixSharingConfig;
        let engine = KelleEngine::builder()
            .prefix_sharing(PrefixSharingConfig::enabled())
            .build();
        let prefix: Vec<usize> = (0..12).map(|i| (i * 3 + 2) % 512).collect();
        assert!(engine.publish_prefix(&prefix));
        let shared_footprint = engine.kv_footprint_bytes(prefix.len());

        let requests: Vec<ServeRequest> = (0..3)
            .map(|i| {
                let mut prompt = prefix.clone();
                prompt.extend([100 + i, 200 + i]);
                ServeRequest::new(prompt, 2)
            })
            .collect();
        let total_private: u64 = requests
            .iter()
            .map(|r| engine.kv_footprint_bytes(r.prompt().len()) - shared_footprint)
            .sum();

        let mut scheduler = BatchScheduler::new(&engine);
        for request in requests {
            scheduler.submit(request);
        }
        // All three are active; the ledger charges the prefix once.
        assert_eq!(scheduler.active(), 3);
        assert_eq!(
            scheduler.ledger().live_bytes(),
            shared_footprint + total_private
        );
        assert_eq!(scheduler.ledger().shared_bytes(), shared_footprint);
        assert_eq!(
            scheduler.ledger().dedup_savings_bytes(),
            2 * shared_footprint
        );
        let outcome = run(scheduler);
        assert_eq!(outcome.prefix.hit_requests, 3);
        assert_eq!(outcome.prefix.hit_tokens, 3 * prefix.len() as u64);
        assert_eq!(outcome.prefix.shared_bytes, shared_footprint);
        assert_eq!(outcome.prefix.deduplicated_bytes, 2 * shared_footprint);
        assert_eq!(outcome.stats.prefix_hit_tokens, 3 * prefix.len() as u64);
        // Every request reports its own hit in the per-request outcome.
        assert!(outcome
            .outcomes
            .iter()
            .all(|o| o.prefix_hit_tokens == prefix.len() && o.prefilled_tokens == 2));
    }

    #[test]
    fn shared_prefix_admission_fits_more_sessions() {
        use crate::prefix::PrefixSharingConfig;
        let prefix: Vec<usize> = (0..10).collect();
        let build = |sharing: bool| {
            let mut builder = KelleEngine::builder();
            if sharing {
                builder = builder.prefix_sharing(PrefixSharingConfig::enabled());
            }
            builder.build()
        };
        let make_requests = || -> Vec<ServeRequest> {
            (0..2)
                .map(|i| {
                    let mut prompt = prefix.clone();
                    prompt.push(400 + i);
                    ServeRequest::new(prompt, 1)
                })
                .collect()
        };

        let sharing = build(true);
        assert!(sharing.publish_prefix(&prefix));
        // Capacity: one full prompt plus one suffix — enough for both
        // requests only when the prefix is deduplicated.
        let capacity = sharing.kv_footprint_bytes(prefix.len() + 1)
            + (sharing.kv_footprint_bytes(prefix.len() + 1)
                - sharing.kv_footprint_bytes(prefix.len()));
        let config = SchedulerConfig::default().with_kv_capacity_bytes(capacity);

        let mut with = BatchScheduler::with_config(&sharing, config);
        for request in make_requests() {
            with.submit(request);
        }
        assert_eq!(with.active(), 2, "dedup makes both prompts fit at once");

        let cold = build(false);
        let mut without = BatchScheduler::with_config(&cold, config);
        for request in make_requests() {
            without.submit(request);
        }
        assert_eq!(without.active(), 1, "without sharing the second queues");
        // Streams are identical either way.
        let a = run(with);
        let b = run(without);
        for (x, y) in a.outcomes.iter().zip(b.outcomes.iter()) {
            assert_eq!(x.generated, y.generated);
        }
        assert_eq!(b.prefix, PrefixBatchMetrics::default());
    }

    #[test]
    fn backfill_admits_only_after_shared_prefix_detach_frees_bytes() {
        use crate::prefix::PrefixSharingConfig;
        let engine = KelleEngine::builder()
            .prefix_sharing(PrefixSharingConfig::enabled())
            .build();
        let prefix: Vec<usize> = (0..8).map(|i| (i * 5 + 3) % 512).collect();
        assert!(engine.publish_prefix(&prefix));
        let shared = engine.kv_footprint_bytes(prefix.len());

        // Request A rides the shared prefix (2 private suffix tokens);
        // request B (no prefix match) is sized so it fits the capacity alone
        // but NOT alongside any part of A — not even the shared-pool bytes:
        //   footprint(B) <= capacity  and  footprint(B) > capacity - shared.
        // B can therefore only be admitted once A's completion both releases
        // its private lease *and* detaches the last shared-pool reference.
        let mut a_prompt = prefix.clone();
        a_prompt.extend([100, 101]);
        let b_prompt: Vec<usize> = (0..10).map(|i| 300 + i).collect();
        let capacity = engine.kv_footprint_bytes(11);
        let b_footprint = engine.kv_footprint_bytes(b_prompt.len());
        assert!(b_footprint <= capacity);
        assert!(
            b_footprint > capacity - shared,
            "B must need the shared-pool bytes back, not just A's private lease"
        );

        let config = SchedulerConfig::default().with_kv_capacity_bytes(capacity);
        let mut scheduler = BatchScheduler::with_config(&engine, config);
        scheduler.submit(ServeRequest::new(a_prompt, 2));
        scheduler.submit(ServeRequest::new(b_prompt.clone(), 1));
        assert_eq!(scheduler.active(), 1, "B waits while A holds the prefix");
        assert_eq!(scheduler.waiting(), 1);
        assert!(scheduler.ledger().has_shared(0));

        scheduler.step();
        assert_eq!(scheduler.waiting(), 1, "A still active: no room for B");
        // A finishes mid-tick: finalizing it releases its lease, detaches the
        // shared prefix (last holder), and the same step() call back-fills B.
        scheduler.step();
        assert_eq!(scheduler.active(), 1, "B admitted by the back-fill");
        assert_eq!(scheduler.waiting(), 0);
        assert!(
            !scheduler.ledger().has_shared(0),
            "last detach emptied the shared pool"
        );

        scheduler.step();
        assert!(scheduler.is_idle());
        let outcome = scheduler.finish().expect("batch is idle");
        let timings = &outcome.contention.per_request;
        assert_eq!(timings[0].finished_tick, timings[1].admitted_tick);
        assert_eq!(timings[1].queue_ticks, 2);
        assert_eq!(outcome.prefix.hit_requests, 1);
        // B's stream is unaffected by having queued behind the prefix bytes.
        let unbounded = engine.serve_one(&b_prompt, 1);
        assert_eq!(outcome.outcomes[1].generated, unbounded.generated);
    }

    #[test]
    fn tiering_streams_match_unbounded_and_stay_within_edram_budget() {
        let engine = engine();
        let requests: Vec<ServeRequest> = (0..4)
            .map(|i| ServeRequest::new(vec![10 + i, 20 + i, 30 + i, 40 + i], 3))
            .collect();

        let mut unbounded = BatchScheduler::new(&engine);
        for request in &requests {
            unbounded.submit(request.clone());
        }
        let baseline = run(unbounded);

        // eDRAM holds one 4-token prompt at a time: the fleet's total KV
        // overflows on chip and must queue + demote.
        let edram = engine.kv_footprint_bytes(4);
        let config = SchedulerConfig::default().with_tiering(TierConfig::with_edram_budget(edram));
        let mut scheduler = BatchScheduler::with_config(&engine, config);
        for request in &requests {
            scheduler.submit(request.clone());
        }
        let tiered = run(scheduler);

        // Bit-identical functional and hardware outcomes; only the tiering
        // metrics differ from their all-zero default.
        for (a, b) in baseline.outcomes.iter().zip(tiered.outcomes.iter()) {
            assert_eq!(a.generated, b.generated);
            assert_eq!(a.faults, b.faults);
            assert_eq!(a.hardware, b.hardware);
        }
        assert_eq!(baseline.stats, tiered.stats);
        assert_ne!(tiered.tiering, TieringMetrics::default());
        // The settled eDRAM residency respects the budget; overflow lived in
        // the slower tiers and came back at a modelled migration cost.
        assert!(tiered.tiering.edram.settled_peak_bytes <= edram);
        assert!(tiered.tiering.demotions > 0);
        assert!(tiered.tiering.promotions > 0);
        assert!(tiered.tiering.migration_time_s > 0.0);
        assert!(tiered.tiering.migration_energy_j > 0.0);
        assert_eq!(
            tiered.tiering.migrated_bytes,
            tiered.tiering.edram.out_bytes + tiered.tiering.edram.in_bytes,
            "with a one-prompt eDRAM all migrations cross the eDRAM boundary"
        );
    }

    #[test]
    fn oversized_session_thrashes_but_completes_identically() {
        let engine = engine();
        let request = ServeRequest::new(vec![1, 2, 3, 4, 5, 6, 7, 8], 4);
        let alone = engine.serve_one(request.prompt(), 4);

        // The single session is larger than the whole eDRAM tier: it is
        // force-admitted, demoted by every rebalance, and promoted back each
        // tick — a modelled swap loop, not a correctness problem.
        let edram = engine.kv_footprint_bytes(1);
        let config = SchedulerConfig::default().with_tiering(TierConfig::with_edram_budget(edram));
        let mut scheduler = BatchScheduler::with_config(&engine, config);
        scheduler.submit(request);
        let outcome = run(scheduler);

        assert_eq!(outcome.outcomes[0].generated, alone.generated);
        assert_eq!(outcome.outcomes[0].hardware, alone.hardware);
        assert!(
            outcome.tiering.demotions >= 3 && outcome.tiering.promotions >= 3,
            "expected a swap per tick, got {}/{}",
            outcome.tiering.demotions,
            outcome.tiering.promotions
        );
        // No grant shrinkage and no spill: capacity spans the hierarchy.
        assert_eq!(outcome.contention.per_request[0].granted_bytes, None);
        assert_eq!(outcome.contention.spill_bytes, 0);
    }

    #[test]
    fn deadline_sheds_with_partial_output() {
        let engine = engine();
        let mut scheduler = BatchScheduler::new(&engine);
        scheduler.submit(
            ServeRequest::builder(vec![1, 2, 3])
                .decode_len(10)
                .deadline_ticks(3)
                .build(),
        );
        let alone = engine.serve_one(&[1, 2, 3], 10);
        for _ in 0..4 {
            scheduler.step();
        }
        assert!(scheduler.is_idle(), "deadline shed the request");
        let outcome = scheduler.finish().expect("idle");
        let shed = &outcome.outcomes[0];
        assert_eq!(shed.shed, Some(ShedReason::DeadlineExceeded));
        // Three full ticks of decode before the shed, bit-identical to the
        // unconstrained stream's prefix.
        assert_eq!(shed.generated, alone.generated[..3]);
        assert_eq!(outcome.chaos.shed_requests, 1);
    }

    #[test]
    fn queue_timeout_sheds_waiting_requests() {
        let engine = engine();
        let capacity = engine.kv_footprint_bytes(4);
        let config = SchedulerConfig::default().with_kv_capacity_bytes(capacity);
        let mut scheduler = BatchScheduler::with_config(&engine, config);
        scheduler.submit(ServeRequest::new(vec![1, 2, 3, 4], 8));
        scheduler.submit(
            ServeRequest::builder(vec![5, 6, 7, 8])
                .decode_len(2)
                .queue_timeout_ticks(2)
                .build(),
        );
        assert_eq!(scheduler.waiting(), 1);
        for _ in 0..3 {
            scheduler.step();
        }
        assert_eq!(scheduler.waiting(), 0, "queue timeout expired");
        let outcome = run(scheduler);
        assert_eq!(outcome.outcomes[1].shed, Some(ShedReason::QueueTimeout));
        assert!(outcome.outcomes[1].generated.is_empty());
        assert_eq!(outcome.outcomes[0].shed, None);
        assert_eq!(outcome.outcomes[0].generated.len(), 8);
    }

    #[test]
    fn cancel_finalizes_mid_stream_and_releases_capacity() {
        let engine = engine();
        let mut scheduler = BatchScheduler::new(&engine);
        let mut pool = WorkerPool::default();
        let a = scheduler.submit_with(ServeRequest::new(vec![1, 2, 3], 8), &mut pool);
        let b = scheduler.submit_with(ServeRequest::new(vec![4, 5, 6], 2), &mut pool);
        scheduler.step_with(&mut pool);
        assert!(scheduler.cancel_with(a, &mut pool));
        assert!(!scheduler.cancel_with(a, &mut pool), "already finished");
        assert!(!scheduler.cancel_with(99, &mut pool), "unknown index");
        let outcome = scheduler.run_with(&mut pool, |_| {}).expect("no chaos");
        assert_eq!(outcome.outcomes[a].shed, Some(ShedReason::Cancelled));
        assert_eq!(outcome.outcomes[a].generated.len(), 1);
        assert_eq!(outcome.outcomes[b].shed, None);
        assert_eq!(outcome.chaos.cancelled_requests, 1);
    }

    #[test]
    fn drain_stops_admission_and_releases_everything() {
        let engine = engine();
        let capacity = engine.kv_footprint_bytes(4);
        let config = SchedulerConfig::default().with_kv_capacity_bytes(capacity);
        let mut scheduler = BatchScheduler::with_config(&engine, config);
        let mut pool = WorkerPool::default();
        scheduler.submit_with(ServeRequest::new(vec![1, 2, 3, 4], 4), &mut pool);
        scheduler.submit_with(ServeRequest::new(vec![5, 6, 7, 8], 4), &mut pool);
        assert_eq!((scheduler.active(), scheduler.waiting()), (1, 1));
        scheduler.step_with(&mut pool);
        scheduler
            .drain_with(&mut pool)
            .expect("no chaos, drain cannot fail");
        // The completed session came back from the pool: nothing is left
        // resident.
        assert!(pool.take(0).is_none());
        assert!(scheduler.is_draining());
        assert!(scheduler.is_idle());
        assert_eq!(scheduler.ledger().live_bytes(), 0);
        assert_eq!(scheduler.ledger().shared_bytes(), 0);
        let outcome = scheduler.finish().expect("drained scheduler is idle");
        // The active request ran to completion; the queued one was dropped.
        assert_eq!(outcome.outcomes[0].shed, None);
        assert_eq!(outcome.outcomes[0].generated.len(), 4);
        assert_eq!(outcome.outcomes[1].shed, Some(ShedReason::Drained));
        assert_eq!(outcome.chaos.drained_requests, 1);
    }

    #[test]
    fn chaos_recovery_keeps_streams_bit_identical() {
        let engine = engine();
        let requests: Vec<ServeRequest> = (0..4)
            .map(|i| ServeRequest::new(vec![10 + i, 20 + i, 30 + i], 4))
            .collect();

        let mut baseline = BatchScheduler::new(&engine);
        for request in &requests {
            baseline.submit(request.clone());
        }
        let clean = run(baseline);

        let chaos = ChaosConfig::default()
            .with_seed(7)
            .with_worker_panics(250)
            .with_ledger_blips(100)
            .with_max_retries(4);
        let config = SchedulerConfig::default().with_chaos(chaos);
        for workers in [1, 2, 4] {
            let chaotic = std::thread::scope(|scope| {
                let mut pool = WorkerPool::start(scope, workers);
                let mut scheduler = BatchScheduler::with_config(&engine, config);
                for request in &requests {
                    scheduler.submit_with(request.clone(), &mut pool);
                }
                scheduler.run_with(&mut pool, |_| {})
            })
            .expect("retry budget absorbs every injected panic");
            assert!(
                chaotic.chaos.injected_panics > 0,
                "the 25% panic rate must fire across 4x4 decode steps"
            );
            assert_eq!(chaotic.chaos.lost_requests, 0);
            assert!(chaotic.chaos.restored_sessions >= chaotic.chaos.replayed_steps);
            for (a, b) in clean.outcomes.iter().zip(chaotic.outcomes.iter()) {
                assert_eq!(a.generated, b.generated);
                assert_eq!(a.faults, b.faults);
                assert_eq!(a.hardware, b.hardware);
            }
            assert_eq!(clean.stats, chaotic.stats);
        }
    }

    #[test]
    fn exhausted_retries_surface_worker_lost_and_stay_consistent() {
        let engine = engine();
        let chaos = ChaosConfig::default()
            .with_seed(3)
            .with_worker_panics(1000)
            .with_max_retries(0);
        let config = SchedulerConfig::default().with_chaos(chaos);
        let mut scheduler = BatchScheduler::with_config(&engine, config);
        let mut pool = WorkerPool::default();
        scheduler.submit_with(ServeRequest::new(vec![1, 2, 3], 4), &mut pool);
        let err = scheduler
            .try_step_with(&mut pool)
            .expect_err("a certain panic with no retries must be lost");
        match err {
            ServeError::WorkerLost {
                request, attempts, ..
            } => {
                assert_eq!(request, 0);
                assert_eq!(attempts, 1);
            }
        }
        // The lost request was finalized; the scheduler is drainable and
        // leak-free.
        assert!(scheduler.is_idle());
        assert_eq!(scheduler.ledger().live_bytes(), 0);
        let outcome = scheduler.finish().expect("idle after the loss");
        assert_eq!(outcome.outcomes[0].shed, Some(ShedReason::WorkerLost));
        assert_eq!(outcome.chaos.lost_requests, 1);
    }

    #[test]
    fn tiering_admission_queues_against_the_edram_budget_only() {
        let engine = engine();
        let edram = engine.kv_footprint_bytes(4);
        let config = SchedulerConfig::default().with_tiering(TierConfig::with_edram_budget(edram));
        let mut scheduler = BatchScheduler::with_config(&engine, config);
        scheduler.submit(ServeRequest::new(vec![1, 2, 3, 4], 2));
        scheduler.submit(ServeRequest::new(vec![5, 6, 7, 8], 2));
        // The ledger spans the hierarchy (it has room), but the second
        // request still waits for on-chip space.
        assert_eq!(scheduler.active(), 1);
        assert_eq!(scheduler.waiting(), 1);
        assert!(scheduler.ledger().can_fit(edram));
        let outcome = run(scheduler);
        assert!(outcome.contention.total_queue_ticks > 0);
    }

    #[test]
    fn future_arrivals_join_at_their_tick() {
        let engine = engine();
        let mut scheduler = BatchScheduler::new(&engine);
        scheduler.submit(
            ServeRequest::builder(vec![1, 2])
                .decode_len(2)
                .arrival_tick(3)
                .build(),
        );
        assert_eq!(scheduler.active(), 0, "not arrived yet");
        assert_eq!(scheduler.arrivals.len(), 1);
        assert!(!scheduler.is_idle(), "a scheduled arrival keeps it busy");
        // Ticks 1 and 2 pass idle; tick 3 admits the arrival.
        assert!(scheduler.step().is_empty());
        assert!(scheduler.step().is_empty());
        assert!(scheduler.step().is_empty());
        assert_eq!((scheduler.active(), scheduler.arrivals.len()), (1, 0));
        assert_eq!(scheduler.step().len(), 1);
        scheduler.step();
        assert!(scheduler.is_idle());
        let outcome = scheduler.finish().expect("idle");
        let timing = &outcome.contention.per_request[0];
        assert_eq!(timing.submitted_tick, 3);
        assert_eq!(timing.admitted_tick, 3);
        assert_eq!(timing.queue_ticks, 0, "admitted the tick it arrived");
        assert_eq!(timing.first_token_tick, Some(4));
        // The stream is exactly what an eager submission produces.
        let eager = engine.serve_one(&[1, 2], 2);
        assert_eq!(outcome.outcomes[0].generated, eager.generated);
    }

    #[test]
    fn drain_sheds_scheduled_arrivals() {
        let engine = engine();
        let mut scheduler = BatchScheduler::new(&engine);
        let mut pool = WorkerPool::default();
        scheduler.submit_with(ServeRequest::new(vec![1, 2], 2), &mut pool);
        scheduler.submit_with(
            ServeRequest::builder(vec![3, 4])
                .decode_len(1)
                .arrival_tick(50)
                .build(),
            &mut pool,
        );
        scheduler.drain_with(&mut pool).expect("no chaos");
        assert!(scheduler.is_idle());
        let outcome = scheduler.finish().expect("idle");
        assert_eq!(outcome.outcomes[0].shed, None);
        assert_eq!(outcome.outcomes[1].shed, Some(ShedReason::Drained));
    }

    #[test]
    fn cancelling_a_future_arrival_leaves_nothing_scheduled() {
        let engine = engine();
        let mut scheduler = BatchScheduler::new(&engine);
        let mut pool = WorkerPool::default();
        let late = scheduler.submit_with(
            ServeRequest::builder(vec![3, 4])
                .decode_len(1)
                .arrival_tick(50)
                .build(),
            &mut pool,
        );
        assert_eq!(scheduler.arrivals.len(), 1);
        assert!(scheduler.cancel_with(late, &mut pool));
        assert!(!scheduler.cancel_with(late, &mut pool), "already finished");
        assert_eq!(scheduler.arrivals.len(), 0);
        assert!(
            scheduler.is_idle(),
            "a cancelled arrival does not keep the clock running to its tick"
        );
        let outcome = scheduler.finish().expect("idle");
        assert_eq!(outcome.outcomes[late].shed, Some(ShedReason::Cancelled));
        assert_eq!(outcome.parallel.ticks, 0);
    }

    #[test]
    fn slo_report_classifies_goodput() {
        let engine = engine();
        // Room for one 4-token prompt: the second request queues behind the
        // first and misses the 1-tick TTFT bound.
        let capacity = engine.kv_footprint_bytes(4);
        let config = SchedulerConfig::default()
            .with_kv_capacity_bytes(capacity)
            .with_slo(SloSpec::new(1, f64::MAX));
        let mut scheduler = BatchScheduler::with_config(&engine, config);
        scheduler.submit(ServeRequest::new(vec![1, 2, 3, 4], 2));
        scheduler.submit(ServeRequest::new(vec![5, 6, 7, 8], 2));
        let outcome = run(scheduler);
        let slo = &outcome.slo;
        assert_eq!((slo.requests, slo.completed, slo.shed), (2, 2, 0));
        assert_eq!(slo.ttft.samples, 2);
        assert_eq!(slo.ttft.p50, 1.0, "the uncontended request's TTFT");
        assert!(slo.ttft.max > 1.0, "the queued request waited");
        assert_eq!(slo.tpot.samples, 2);
        assert_eq!(slo.tpot.p50, 1.0, "one token per tick");
        assert!(slo.queue.max > 0.0);
        assert_eq!(slo.goodput_requests, 1, "only the first met the bound");
        assert_eq!(slo.goodput_tokens, 2);
        assert_eq!(slo.total_tokens, 4);
        assert!(slo.goodput_fraction() == 0.5);
        // The unified report carries every block unchanged.
        let report = outcome.report();
        assert_eq!(report.slo, outcome.slo);
        assert_eq!(report.contention, outcome.contention);
        assert_eq!(report.prefix, outcome.prefix);
        assert_eq!(report.chaos, outcome.chaos);
    }

    #[test]
    fn latency_summary_uses_nearest_rank() {
        let summary = LatencySummary::from_samples((1..=100).map(f64::from).collect());
        assert_eq!(summary.p50, 50.0);
        assert_eq!(summary.p95, 95.0);
        assert_eq!(summary.p99, 99.0);
        assert_eq!(summary.max, 100.0);
        assert_eq!(summary.mean, 50.5);
        assert_eq!(summary.samples, 100);
        assert_eq!(
            LatencySummary::from_samples(Vec::new()),
            LatencySummary::default()
        );
        let one = LatencySummary::from_samples(vec![7.0]);
        assert_eq!((one.p50, one.p99, one.max), (7.0, 7.0, 7.0));
    }
}
