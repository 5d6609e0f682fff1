//! Threaded serving back-end: deterministic multi-worker decode over the
//! batch scheduler, on one executor, the [`WorkerPool`].
//!
//! Kelle's serving story keeps the accelerator fed by many concurrent
//! sessions whose KV state *stays put*.  The functional model has the same
//! shape: a session lives on its pool shard from admission to finalization,
//! and only results cross back to the coordinator.
//!
//! # The protocol
//!
//! The [`BatchScheduler`] drives every tick through a [`WorkerPool`] in
//! three crate-private calls:
//!
//! 1. **admit** — run a planned prefill *where the session will live* and
//!    keep it there; only its cursors and prefix-hit count come back;
//! 2. **step** — decode one token on each named resident session; one result
//!    per survivor and one failure per panicked step come back;
//! 3. **take** — hand a session back for completion, shed or cancellation.
//!
//! A pool of `workers` shards runs shard 0 on the caller's thread and each
//! of the other `workers − 1` on a scoped thread of its own behind a
//! mailbox, with request `index` pinned to shard `index % workers`.  So
//! every worker is a busy thread: the caller decodes its own shard's
//! sessions while the threads decode theirs, instead of waking them and
//! sleeping.  A one-shard pool — [`WorkerPool::default`], or
//! [`WorkerPool::start`] at one worker — is that caller shard alone: no
//! thread, no channel, no scope.  It is what the scheduler's own
//! [`submit`](crate::scheduler::BatchScheduler::submit) /
//! [`step`](crate::scheduler::BatchScheduler::step) and a plain
//! [`KelleEngine::serve`](crate::engine::KelleEngine::serve) run on.  A
//! session costs two queue crossings in its lifetime — handed into its shard
//! with its prefill, handed back when taken (shard 0's cross no thread) —
//! none per tick, and never migrates; [`ParallelMetrics`] reports both.
//! Everything else stays on the coordinator: the waiting queue, admission
//! decisions and their prefix-store *plans* (in admission order), the
//! [`CapacityLedger`](kelle_edram::CapacityLedger), timings and statistics.
//!
//! **Chaos lives on the shard.**  With a [`ChaosConfig`] each step request
//! asks the shard to checkpoint the committed boundary the session is about
//! to leave and carries the plan's sabotage flag.  A panicked step restores
//! the checkpoint *in place*; the coordinator's bounded retry loop re-issues
//! the step for the failed indices, and at budget exhaustion `take` hands
//! back the restored session so the shed finalizes a real partial turn.
//! Without a `ChaosConfig` there is no checkpoint and a panicked session is
//! simply gone.
//!
//! # Why determinism holds
//!
//! A step is a pure function of the session it runs on, and a session is on
//! one thread for its whole life; the coordinator sorts each tick's results
//! by request index before committing — ledger growth, completions (hardware
//! simulation, `f64` accumulation) and admission back-fill happen in
//! submission order.  Streams, probability bits, fault statistics and every
//! [`BatchOutcome`] metric are therefore bit-identical at every worker
//! count, panic storm or not — CI gates it at `KELLE_TEST_WORKERS=1,2,4`
//! with the `integration_{parallel,front,chaos}` suites.
//!
//! [`BatchScheduler`]: crate::scheduler::BatchScheduler
//! [`BatchOutcome`]: crate::scheduler::BatchOutcome
//! [`ChaosConfig`]: crate::chaos::ChaosConfig

use crate::prefix::PrefixHit;
use crate::session::Session;
use kelle_model::DecodeStep;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::Scope;

/// Cross-thread traffic counters for one batch, reported on
/// [`BatchOutcome::parallel`](crate::scheduler::BatchOutcome::parallel).
///
/// These measure the *executor protocol*, not the streams: every worker
/// count produces bit-identical tokens, and the same counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelMetrics {
    /// Whole-session handoffs into and out of a pool shard: +1 when a
    /// session goes to its shard with its prefill, +1 when it is taken back.
    /// Shard 0 runs on the caller's thread, so its crossings move a session
    /// across no thread; they count all the same, keeping the figure a
    /// function of the batch alone.  Step results move no session and count
    /// zero, so a tick costs nothing here.
    pub queue_crossings: u64,
    /// Steps that ran on a different shard than the one the session was
    /// admitted to — zero by construction under pinning; counted rather than
    /// assumed so a broken pin shows up as a number.
    pub sessions_migrated: u64,
    /// Scheduler ticks the batch ran for (the denominator of
    /// crossings-per-tick).
    pub ticks: u64,
}

impl ParallelMetrics {
    /// Queue crossings per scheduler tick (0 when the batch never ticked).
    pub fn crossings_per_tick(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.queue_crossings as f64 / self.ticks as f64
        }
    }
}

/// One admission on its way to the shard it will live on: the freshly opened
/// session together with its planned prefill — the prefix hit to replay, if
/// any, resolved on the coordinator; executing it touches no shared state.
#[derive(Debug)]
pub(crate) struct Admission<'e> {
    index: usize,
    session: Session<'e>,
    tokens: Vec<usize>,
    plan: Option<PrefixHit>,
}

impl<'e> Admission<'e> {
    pub(crate) fn new(
        index: usize,
        session: Session<'e>,
        tokens: Vec<usize>,
        plan: Option<PrefixHit>,
    ) -> Self {
        Admission {
            index,
            session,
            tokens,
            plan,
        }
    }
}

/// What comes back from a completed [`Admission`]: everything the coordinator
/// needs to activate the slot — and not the session, which stays resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Prefilled {
    /// The request index the session belongs to.
    pub(crate) index: usize,
    /// Prompt tokens whose prefill was actually computed.
    pub(crate) computed: usize,
    /// Prompt tokens replayed from a shared prefix segment instead.
    pub(crate) prefix_hit_tokens: usize,
    /// The pool shard the session now lives on.
    pub(crate) worker: usize,
}

/// One session's share of a decode fan-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StepRequest {
    /// The resident session to step.
    pub(crate) index: usize,
    /// Chaos: checkpoint the session before stepping (it sits at a committed
    /// boundary) so a panicked step can be restored in place.  Set on the
    /// first attempt of a tick, clear on replays — the boundary has not
    /// moved.
    pub(crate) checkpoint: bool,
    /// Chaos: panic *after* the step computes, so the mutated session is
    /// genuinely lost mid-tick (the strongest case for checkpoint/replay).
    pub(crate) sabotage: bool,
}

/// One decode step of a resident session: everything the coordinator needs
/// to commit the tick, and nothing else.
#[derive(Debug, Clone)]
pub(crate) struct ResidentStep {
    /// The request index (submission order) the step belongs to.
    pub(crate) index: usize,
    /// The decoded step (token, probability bits, fault draws).
    pub(crate) step: DecodeStep,
    /// Session position before the step (for the lease-growth delta).
    pub(crate) tokens_before: usize,
    /// Session position after the step (for the lease-growth delta).
    pub(crate) position: usize,
    /// The shard that ran the step.
    pub(crate) worker: usize,
}

/// A prefill or step that could not run to completion — it panicked, or it
/// named a session this pool does not hold.  The tick survives: other
/// results still commit and the scheduler decides between replay and shed.
#[derive(Debug, Clone)]
pub(crate) struct TaskFailure {
    index: usize,
    message: String,
}

impl TaskFailure {
    /// The request index whose prefill or step failed.
    pub(crate) fn index(&self) -> usize {
        self.index
    }

    /// The stringified panic payload, or why the request could not be run.
    pub(crate) fn message(&self) -> &str {
        &self.message
    }
}

/// Stringifies a caught panic payload (panics raise `&str` or `String` in
/// practice; anything else gets a placeholder).
fn panic_message(cause: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = cause.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = cause.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A resident session and, under chaos, a fork of it at its last committed
/// boundary (the checkpoint a panicked step is restored from).
#[derive(Debug)]
struct Resident<'e> {
    session: Session<'e>,
    checkpoint: Option<Session<'e>>,
}

/// The one body of the resident-session protocol: a map of the sessions that
/// live here and the three operations on it.  A [`WorkerPool`] has one per
/// worker, shard 0 on the caller's thread and the others on threads of
/// their own.
#[derive(Debug, Default)]
struct Shard<'e> {
    /// Pool shard id stamped on results.
    worker: usize,
    resident: HashMap<usize, Resident<'e>>,
}

impl<'e> Shard<'e> {
    fn admit(&mut self, admission: Admission<'e>) -> Result<Prefilled, TaskFailure> {
        let Admission {
            index,
            mut session,
            tokens,
            plan,
        } = admission;
        // The session moves *into* the unwind boundary: a panicking prefill
        // has no committed state worth keeping and drops it right here.
        let (session, computed) = std::panic::catch_unwind(AssertUnwindSafe(move || {
            let computed = session.prefill_planned(&tokens, plan);
            (session, computed)
        }))
        .map_err(|cause| TaskFailure {
            index,
            message: panic_message(cause.as_ref()),
        })?;
        let prefilled = Prefilled {
            index,
            computed,
            prefix_hit_tokens: session.prefix_hit_tokens(),
            worker: self.worker,
        };
        self.resident.insert(
            index,
            Resident {
                session,
                checkpoint: None,
            },
        );
        Ok(prefilled)
    }

    fn step(&mut self, request: StepRequest) -> Result<ResidentStep, TaskFailure> {
        let StepRequest {
            index,
            checkpoint,
            sabotage,
        } = request;
        let Some(resident) = self.resident.get_mut(&index) else {
            return Err(TaskFailure {
                index,
                message: format!(
                    "request {index} is not resident on pool shard {}: \
                     it was admitted through a different pool, or already taken",
                    self.worker
                ),
            });
        };
        if checkpoint {
            resident.checkpoint = Some(resident.session.fork());
        }
        let session = &mut resident.session;
        let tokens_before = session.position();
        let stepped = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let step = session.decode_one();
            if sabotage {
                panic!("chaos: injected worker panic (request {index})");
            }
            step
        }));
        match stepped {
            Ok(step) => Ok(ResidentStep {
                index,
                step,
                tokens_before,
                position: resident.session.position(),
                worker: self.worker,
            }),
            Err(cause) => {
                // The half-stepped session is unusable.  Put the committed
                // boundary back in its place, or — with no checkpoint — let
                // it go.
                match &resident.checkpoint {
                    Some(checkpoint) => resident.session = checkpoint.fork(),
                    None => {
                        self.resident.remove(&index);
                    }
                }
                Err(TaskFailure {
                    index,
                    message: panic_message(cause.as_ref()),
                })
            }
        }
    }

    fn take(&mut self, index: usize) -> Option<Session<'e>> {
        self.resident
            .remove(&index)
            .map(|resident| resident.session)
    }
}

/// What the coordinator asks of one thread shard.  A shard's mailbox is
/// FIFO, so an `Admit` is always observed before the `Step`/`Take` that
/// names it.
enum Command<'e> {
    // Boxed: an admission carries a whole session, dwarfing the other two —
    // and it is sent once per session, not once per tick.
    Admit(Box<Admission<'e>>),
    /// Step these resident sessions (all pinned to this shard).
    Step(Vec<StepRequest>),
    Take(usize),
}

/// The thread shards `1..workers` of a pool: one mailbox each and the three
/// reply lines they all answer on.
#[derive(Debug)]
struct Threads<'e> {
    /// One mailbox per thread shard: shard `s ≥ 1` at index `s − 1`.
    mailboxes: Vec<Sender<Command<'e>>>,
    prefilled: Receiver<Result<Prefilled, TaskFailure>>,
    steps: Receiver<Result<ResidentStep, TaskFailure>>,
    taken: Receiver<Option<Session<'e>>>,
}

impl<'e> Threads<'e> {
    /// Sends `command` to thread shard `shard` (≥ 1; shard 0 has no
    /// mailbox).
    fn send(&self, shard: usize, command: Command<'e>) {
        self.mailboxes[shard - 1]
            .send(command)
            .expect("workers outlive the pool (scoped) and keep their mailboxes open");
    }
}

/// Where sessions live while the [`BatchScheduler`](crate::scheduler::BatchScheduler)
/// serves them: `workers` shards of the resident-session protocol (see the
/// [module docs](self)), shard 0 on the caller's thread and shards
/// `1..workers` on scoped threads, each behind its own mailbox.  Request
/// `index` lives on shard `index % workers` from its admission prefill until
/// it is taken, so per tick one small command goes to each busy thread
/// shard, the caller steps shard 0's sessions itself meanwhile, and one step
/// result per session comes back.
///
/// [`WorkerPool::default`] is the one-shard pool: it needs no thread scope
/// and holds no channel, and [`start`](WorkerPool::start) at one worker
/// returns it.  A scheduler must be driven through one pool from its first
/// submission to its last take: a session admitted to one pool is not
/// resident on another, whose step for it sheds the request as
/// [`ShedReason::WorkerLost`](crate::chaos::ShedReason::WorkerLost).
///
/// A threaded pool is tied to a [`std::thread::scope`] so sessions may
/// borrow the engine (`Session<'e>` holds `&'e KelleEngine`) without any
/// `'static` gymnastics; dropping the pool drops shard 0's sessions, closes
/// the mailboxes, and the scope joins the threads, who drop whatever
/// sessions they still hold.  Panics inside a prefill or a step are caught
/// on the shard — shard 0's as well — and answered as failures: a crashed
/// session can never unwind the caller or leave it waiting for a reply that
/// will not come.
#[derive(Debug, Default)]
pub struct WorkerPool<'e> {
    /// Shard 0, run on the calling thread.
    local: Shard<'e>,
    /// The other shards; `None` in a one-shard pool.
    threads: Option<Threads<'e>>,
    /// Request indices of every `admit` call, in call order.
    #[cfg(test)]
    pub(crate) admits: Vec<Vec<usize>>,
}

impl<'e> WorkerPool<'e> {
    /// Builds a pool of `workers` (clamped to at least 1) shards: shard 0
    /// for the calling thread and `workers − 1` scoped worker threads.
    pub fn start<'scope>(scope: &'scope Scope<'scope, '_>, workers: usize) -> WorkerPool<'e>
    where
        'e: 'scope,
    {
        if workers <= 1 {
            return WorkerPool::default();
        }
        let (prefilled_tx, prefilled) = channel();
        let (steps_tx, steps) = channel();
        let (taken_tx, taken) = channel();
        let mailboxes = (1..workers)
            .map(|id| {
                let (mailbox, commands) = channel::<Command<'e>>();
                let prefilled: Sender<Result<Prefilled, TaskFailure>> = prefilled_tx.clone();
                let steps: Sender<Result<ResidentStep, TaskFailure>> = steps_tx.clone();
                let taken: Sender<Option<Session<'e>>> = taken_tx.clone();
                scope.spawn(move || {
                    let mut shard = Shard {
                        worker: id,
                        resident: HashMap::new(),
                    };
                    // Ends when the pool (the mailbox's only sender) is gone.
                    while let Ok(command) = commands.recv() {
                        let delivered = match command {
                            Command::Admit(admission) => {
                                prefilled.send(shard.admit(*admission)).is_ok()
                            }
                            Command::Step(requests) => requests
                                .into_iter()
                                .all(|request| steps.send(shard.step(request)).is_ok()),
                            Command::Take(index) => taken.send(shard.take(index)).is_ok(),
                        };
                        if !delivered {
                            // The coordinator is gone; nothing left to work
                            // for.
                            break;
                        }
                    }
                    // Resident sessions are dropped here, on the shard that
                    // owns them.
                });
                mailbox
            })
            .collect();
        WorkerPool {
            threads: Some(Threads {
                mailboxes,
                prefilled,
                steps,
                taken,
            }),
            ..WorkerPool::default()
        }
    }

    /// Number of shards: the calling thread's and one per worker thread.
    pub(crate) fn workers(&self) -> usize {
        self.threads
            .as_ref()
            .map_or(1, |threads| threads.mailboxes.len() + 1)
    }

    /// Runs every planned prefill on the shard its session is pinned to and
    /// leaves the session resident there.  A panicked prefill loses its
    /// session and reports a [`TaskFailure`].  Every admission is answered
    /// exactly once, in any order.
    pub(crate) fn admit(
        &mut self,
        admissions: Vec<Admission<'e>>,
    ) -> Vec<Result<Prefilled, TaskFailure>> {
        #[cfg(test)]
        self.admits
            .push(admissions.iter().map(|admission| admission.index).collect());
        let workers = self.workers();
        let Some(threads) = &self.threads else {
            return admissions
                .into_iter()
                .map(|admission| self.local.admit(admission))
                .collect();
        };
        // The threads get their work first, so they prefill while the
        // caller prefills shard 0's.
        let mut local = Vec::new();
        let mut remote = 0;
        for admission in admissions {
            match admission.index % workers {
                0 => local.push(admission),
                shard => {
                    threads.send(shard, Command::Admit(Box::new(admission)));
                    remote += 1;
                }
            }
        }
        let mut results: Vec<_> = local
            .into_iter()
            .map(|admission| self.local.admit(admission))
            .collect();
        results.extend(drain(&threads.prefilled, remote));
        results
    }

    /// Decodes one step on each named resident session without moving it.
    /// A panicked step restores the session from its checkpoint in place
    /// when it has one ([`StepRequest::checkpoint`]) and drops it otherwise.
    /// Every request is answered exactly once, in any order.
    pub(crate) fn step(
        &mut self,
        requests: &[StepRequest],
    ) -> Vec<Result<ResidentStep, TaskFailure>> {
        let workers = self.workers();
        let Some(threads) = &self.threads else {
            return requests
                .iter()
                .map(|&request| self.local.step(request))
                .collect();
        };
        let mut per_shard = vec![Vec::new(); workers];
        for &request in requests {
            per_shard[request.index % workers].push(request);
        }
        let mut shards = per_shard.into_iter();
        let local = shards.next().unwrap_or_default();
        for (shard, requests) in (1..).zip(shards) {
            if !requests.is_empty() {
                threads.send(shard, Command::Step(requests));
            }
        }
        let mut results: Vec<_> = local
            .into_iter()
            .map(|request| self.local.step(request))
            .collect();
        results.extend(drain(&threads.steps, requests.len() - results.len()));
        results
    }

    /// Takes the resident session for `index` back (completion, shed,
    /// cancellation); `None` when this pool does not hold it.
    pub(crate) fn take(&mut self, index: usize) -> Option<Session<'e>> {
        match (&self.threads, index % self.workers()) {
            (Some(threads), shard) if shard > 0 => {
                threads.send(shard, Command::Take(index));
                drain(&threads.taken, 1).pop().flatten()
            }
            _ => self.local.take(index),
        }
    }
}

/// Receives exactly the `count` replies a call asked for, so reply lines are
/// empty between calls and the pool stays reusable after any failure.
fn drain<T>(replies: &Receiver<T>, count: usize) -> Vec<T> {
    (0..count)
        .map(|_| {
            replies
                .recv()
                .expect("workers outlive the pool (scoped) and keep their reply senders")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, KelleEngine, ServeOptions};
    use crate::scheduler::{BatchOutcome, BatchScheduler};
    use crate::session::ServeRequest;

    fn engine() -> KelleEngine {
        KelleEngine::new(EngineConfig::default())
    }

    fn requests() -> Vec<ServeRequest> {
        vec![
            ServeRequest::new(vec![1, 2, 3, 4], 3),
            ServeRequest::new(vec![5, 6], 5),
            ServeRequest::new(vec![7, 8, 9], 2),
        ]
    }

    /// Serves through [`ServeOptions::parallel`] on a `workers`-wide pool.
    fn serve_pooled(
        requests: Vec<ServeRequest>,
        workers: usize,
        options: ServeOptions<'_>,
    ) -> BatchOutcome {
        KelleEngine::builder()
            .workers(workers)
            .build()
            .serve(requests, options.parallel())
            .expect("no chaos configured")
    }

    /// A cold admission of `tokens` for request `index`.
    fn admission<'e>(engine: &'e KelleEngine, index: usize, tokens: &[usize]) -> Admission<'e> {
        let mut session = engine.open_session();
        let plan = session.plan_prefill(tokens);
        Admission::new(index, session, tokens.to_vec(), plan)
    }

    /// Admits one session per `(index, tokens)` pair, asserting none failed.
    fn admit_all<'e>(
        pool: &mut WorkerPool<'e>,
        engine: &'e KelleEngine,
        fleet: &[(usize, &[usize])],
    ) -> Vec<Prefilled> {
        let admissions = fleet
            .iter()
            .map(|&(index, tokens)| admission(engine, index, tokens))
            .collect();
        let mut prefilled: Vec<Prefilled> = pool
            .admit(admissions)
            .into_iter()
            .map(|result| result.expect("healthy prefill"))
            .collect();
        prefilled.sort_by_key(|prefilled| prefilled.index);
        prefilled
    }

    /// A plain (chaos-free) step request.
    fn plain(index: usize) -> StepRequest {
        StepRequest {
            index,
            checkpoint: false,
            sabotage: false,
        }
    }

    /// A step request that panics after computing, with no checkpoint: the
    /// stand-in for any session whose decode crashes.
    fn crashing(index: usize) -> StepRequest {
        StepRequest {
            sabotage: true,
            ..plain(index)
        }
    }

    /// Splits step results into survivors (sorted by index) and failures.
    fn partition(
        results: Vec<Result<ResidentStep, TaskFailure>>,
    ) -> (Vec<ResidentStep>, Vec<TaskFailure>) {
        let mut steps = Vec::new();
        let mut failures = Vec::new();
        for result in results {
            match result {
                Ok(step) => steps.push(step),
                Err(failure) => failures.push(failure),
            }
        }
        steps.sort_by_key(|step| step.index);
        (steps, failures)
    }

    #[test]
    fn pool_matches_inline_execution_for_any_worker_count() {
        let baseline = engine().serve(requests(), ServeOptions::new()).unwrap();
        for workers in [1, 2, 4] {
            let parallel = serve_pooled(requests(), workers, ServeOptions::new());
            for (a, b) in baseline.outcomes.iter().zip(parallel.outcomes.iter()) {
                assert_eq!(a.generated, b.generated, "workers={workers}");
                assert_eq!(a.faults, b.faults, "workers={workers}");
            }
            assert_eq!(baseline.stats, parallel.stats, "workers={workers}");
            assert_eq!(
                baseline.contention, parallel.contention,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn streaming_order_is_the_sequential_order() {
        let mut sequential = Vec::new();
        let mut sink = |request: usize, token: usize| sequential.push((request, token));
        engine()
            .serve(requests(), ServeOptions::new().streaming(&mut sink))
            .unwrap();
        let mut parallel = Vec::new();
        let mut sink = |request: usize, token: usize| parallel.push((request, token));
        serve_pooled(requests(), 4, ServeOptions::new().streaming(&mut sink));
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn every_axis_matches_inline_serving_bitwise() {
        // Widths 1..=3 on 1, 2 and 4 workers cover pools narrower than,
        // as wide as and wider than their batch (idle shards).  No session
        // ever moves, so the streams pin that the pool's width is invisible
        // and the crossing count pins that a tick costs nothing — on the
        // one-shard pool of a plain `serve` as on every wider one.
        let all = requests();
        for width in 1..=all.len() {
            let requests = all[..width].to_vec();
            let baseline = engine()
                .serve(requests.clone(), ServeOptions::new())
                .unwrap();
            for workers in [1, 2, 4] {
                let parallel = serve_pooled(requests.clone(), workers, ServeOptions::new());
                for (a, b) in baseline.outcomes.iter().zip(parallel.outcomes.iter()) {
                    assert_eq!(a.generated, b.generated, "width={width} workers={workers}");
                    assert_eq!(a.faults, b.faults, "width={width} workers={workers}");
                }
                assert_eq!(
                    baseline.stats, parallel.stats,
                    "width={width} workers={workers}"
                );
                assert_eq!(
                    baseline.contention, parallel.contention,
                    "width={width} workers={workers}"
                );
                assert_eq!(
                    parallel.parallel.queue_crossings as usize,
                    2 * width,
                    "width={width} workers={workers}: in with the prefill, out when taken, nothing per tick"
                );
                assert_eq!(parallel.parallel.sessions_migrated, 0);
                assert_eq!(
                    baseline.parallel, parallel.parallel,
                    "width={width} workers={workers}: one shard or many, the same traffic"
                );
            }
        }
    }

    #[test]
    fn both_axes_match_inline_decode_in_probability_bits_for_all_policies() {
        use kelle_model::CachePolicy;
        // On four workers a two-session decode batch leaves two shards idle
        // and a four-session batch fills them; every step must carry the
        // token, probability bits and fault draws of inline `decode_one`.
        for policy in CachePolicy::all() {
            let engine = KelleEngine::builder().policy(policy).build();
            let prompt = |index: usize| vec![1 + index, 2, 3, 4 + index];
            std::thread::scope(|scope| {
                let mut pool = WorkerPool::start(scope, 4);
                for width in [2, 4] {
                    let prompts: Vec<Vec<usize>> = (0..width).map(prompt).collect();
                    let fleet: Vec<(usize, &[usize])> = prompts
                        .iter()
                        .enumerate()
                        .map(|(index, tokens)| (index, tokens.as_slice()))
                        .collect();
                    admit_all(&mut pool, &engine, &fleet);
                    let mut references: Vec<_> = prompts
                        .iter()
                        .map(|tokens| {
                            let mut session = engine.open_session();
                            session.prefill(tokens);
                            session
                        })
                        .collect();
                    let requests: Vec<StepRequest> = (0..width).map(plain).collect();
                    for _ in 0..4 {
                        let (steps, failures) = partition(pool.step(&requests));
                        assert!(failures.is_empty());
                        for (resident, reference) in steps.iter().zip(&mut references) {
                            let expected = reference.decode_one();
                            let label = format!("policy={}, width={width}", policy.name());
                            assert_eq!(resident.step.token, expected.token, "{label}");
                            assert_eq!(
                                resident
                                    .step
                                    .probs
                                    .iter()
                                    .map(|p| p.to_bits())
                                    .collect::<Vec<_>>(),
                                expected
                                    .probs
                                    .iter()
                                    .map(|p| p.to_bits())
                                    .collect::<Vec<_>>(),
                                "{label}: probability bits"
                            );
                        }
                    }
                    for (index, reference) in references.iter().enumerate() {
                        let session = pool.take(index).expect("resident until taken");
                        assert_eq!(session.fault_stats(), reference.fault_stats());
                    }
                }
            });
        }
    }

    #[test]
    fn panics_on_the_caller_shard_and_a_thread_shard_in_one_tick_are_both_restored() {
        // Shard 0 runs on the calling thread: its sabotaged step must come
        // back as a failure like a thread shard's, not unwind the caller.
        let engine = engine();
        std::thread::scope(|scope| {
            let mut pool = WorkerPool::start(scope, 2);
            admit_all(&mut pool, &engine, &[(0, &[1, 2]), (1, &[4, 5, 6])]);
            let sabotaged = |index| StepRequest {
                index,
                checkpoint: true,
                sabotage: true,
            };
            let (steps, mut failures) = partition(pool.step(&[sabotaged(0), sabotaged(1)]));
            assert!(steps.is_empty());
            failures.sort_by_key(TaskFailure::index);
            assert_eq!(
                failures.iter().map(TaskFailure::index).collect::<Vec<_>>(),
                [0, 1]
            );
            assert!(failures
                .iter()
                .all(|failure| failure.message().contains("chaos")));
            // Both checkpoints went back in place: the next tick steps both
            // sessions from their committed boundaries.
            let (steps, failures) = partition(pool.step(&[plain(0), plain(1)]));
            assert!(failures.is_empty());
            assert_eq!(
                steps
                    .iter()
                    .map(|step| (step.index, step.tokens_before, step.worker))
                    .collect::<Vec<_>>(),
                [(0, 2, 0), (1, 3, 1)]
            );
        });
    }

    #[test]
    fn a_one_worker_pool_spawns_no_thread_and_serves_what_inline_serves() {
        // "Inline" is the scope-free default pool: shard 0 on the caller's
        // thread and nothing else.  A one-worker `start` is that same pool.
        std::thread::scope(|scope| {
            let pool: WorkerPool<'_> = WorkerPool::start(scope, 1);
            assert!(pool.threads.is_none(), "shard 0 is the caller");
        });
        assert!(WorkerPool::default().threads.is_none());
        fn serve<'e>(engine: &'e KelleEngine, pool: &mut WorkerPool<'e>) -> BatchOutcome {
            let mut scheduler = BatchScheduler::new(engine);
            for request in requests() {
                scheduler.submit_with(request, pool);
            }
            scheduler
                .run_with(pool, |_| {})
                .expect("no chaos configured")
        }
        let engine = engine();
        let inline = serve(&engine, &mut WorkerPool::default());
        let pooled = std::thread::scope(|scope| serve(&engine, &mut WorkerPool::start(scope, 1)));
        for (a, b) in inline.outcomes.iter().zip(&pooled.outcomes) {
            assert_eq!(a.generated, b.generated);
            assert_eq!(a.faults, b.faults);
        }
        assert_eq!(inline.stats, pooled.stats);
        assert_eq!(inline.contention, pooled.contention);
        assert_eq!(inline.parallel, pooled.parallel);
        assert_eq!(pooled.parallel.queue_crossings, 2 * requests().len() as u64);
        assert_eq!(pooled.parallel.sessions_migrated, 0);
    }

    #[test]
    fn worker_count_is_clamped_to_one() {
        std::thread::scope(|scope| {
            let pool: WorkerPool<'_> = WorkerPool::start(scope, 0);
            assert_eq!(pool.workers(), 1);
        });
    }

    #[test]
    fn empty_task_batch_is_a_no_op() {
        std::thread::scope(|scope| {
            let mut pool: WorkerPool<'_> = WorkerPool::start(scope, 2);
            assert!(pool.admit(Vec::new()).is_empty());
            assert!(pool.step(&[]).is_empty());
        });
    }

    #[test]
    fn coordinator_unwind_mid_tick_joins_cleanly() {
        // Regression: a coordinator that unwinds mid-tick — after sending a
        // thread shard its work but before draining the reply — must still
        // join the pool cleanly.  Dropping the pool closes the mailboxes, the
        // worker finishes the in-flight command (its reply fails once the
        // receiver is gone) and exits; the scope joins instead of hanging.
        let engine = engine();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                let pool: WorkerPool<'_> = WorkerPool::start(scope, 2);
                let admission = admission(&engine, 1, &[1, 2, 3]);
                let threads = pool
                    .threads
                    .as_ref()
                    .expect("a two-shard pool has a thread");
                threads.send(1, Command::Admit(Box::new(admission)));
                panic!("coordinator unwinds mid-tick");
            });
        }));
        assert!(result.is_err(), "the coordinator panic must propagate");
        // Reaching this assertion at all is the point: the scope returned.
    }

    #[test]
    fn a_crashed_step_spares_the_session_queued_behind_it_on_its_shard() {
        // Requests 0 and 4 share shard 0 of a four-worker pool and travel in
        // one `Step` command: the crash of the first must not take the
        // session queued behind it down with it.
        let engine = engine();
        std::thread::scope(|scope| {
            let mut pool = WorkerPool::start(scope, 4);
            admit_all(&mut pool, &engine, &[(0, &[1, 2]), (4, &[1, 2, 3])]);
            let (steps, failures) = partition(pool.step(&[crashing(0), plain(4)]));
            assert_eq!(steps.len(), 1, "the healthy session survives");
            assert_eq!(steps[0].index, 4);
            assert_eq!(steps[0].worker, 0);
            assert_eq!(failures.len(), 1);
            assert_eq!(failures[0].index(), 0);
        });
    }

    #[test]
    fn try_execute_partitions_outputs_and_failures() {
        let engine = engine();
        std::thread::scope(|scope| {
            let mut pool = WorkerPool::start(scope, 2);
            admit_all(&mut pool, &engine, &[(3, &[4, 5, 6]), (9, &[1, 2])]);
            let (steps, failures) = partition(pool.step(&[plain(3), crashing(9)]));
            assert_eq!(steps.len(), 1);
            assert_eq!(steps[0].index, 3);
            assert_eq!(failures.len(), 1);
            assert_eq!(failures[0].index(), 9);
            // The reply line was fully drained: the next tick sees only its
            // own results.
            let (steps, failures) = partition(pool.step(&[plain(3)]));
            assert_eq!(steps.len(), 1);
            assert!(failures.is_empty());
        });
    }

    #[test]
    fn sabotaged_task_fails_with_the_chaos_message() {
        let engine = engine();
        let mut pool = WorkerPool::default();
        admit_all(&mut pool, &engine, &[(5, &[1, 2, 3])]);
        let sabotaged = StepRequest {
            index: 5,
            checkpoint: true,
            sabotage: true,
        };
        let (steps, failures) = partition(pool.step(&[sabotaged]));
        assert!(steps.is_empty());
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].index(), 5);
        assert!(
            failures[0].message().contains("chaos"),
            "message: {}",
            failures[0].message()
        );
        // The checkpoint went back in place: the replay attempt (same
        // boundary, so no new checkpoint) steps from position 3 again, and a
        // second sabotage still leaves the boundary to take back.
        let (steps, _) = partition(pool.step(&[plain(5)]));
        assert_eq!(steps[0].tokens_before, 3);
        let (_, failures) = partition(pool.step(&[crashing(5)]));
        assert_eq!(failures.len(), 1);
        let restored = pool.take(5).expect("restored in place, not lost");
        assert_eq!(restored.position(), 3);
    }

    #[test]
    fn sticky_pool_steps_parked_sessions_without_moving_them() {
        let engine = engine();
        std::thread::scope(|scope| {
            let mut pool = WorkerPool::start(scope, 2);
            assert_eq!(pool.workers(), 2);
            let fleet: Vec<Vec<usize>> = (0..3).map(|index| vec![1, 2, 3 + index]).collect();
            let fleet: Vec<(usize, &[usize])> = fleet
                .iter()
                .enumerate()
                .map(|(index, tokens)| (index, tokens.as_slice()))
                .collect();
            admit_all(&mut pool, &engine, &fleet);
            let requests = [plain(0), plain(1), plain(2)];
            let (steps, failures) = partition(pool.step(&requests));
            assert!(failures.is_empty());
            assert_eq!(steps.len(), 3);
            for (i, step) in steps.iter().enumerate() {
                assert_eq!(step.index, i);
                assert_eq!(step.tokens_before, 3);
                assert_eq!(step.position, 4);
                // Pinned: the shard is always index % workers.
                assert_eq!(step.worker, i % 2);
            }
            // The sessions stayed resident: a second tick steps them again.
            let (steps, _) = partition(pool.step(&requests));
            assert_eq!(steps.len(), 3);
            assert!(steps.iter().all(|s| s.tokens_before == 4));
            // Take hands the stepped session back; taking twice (or an
            // unknown index) finds nothing.
            let session = pool.take(1).expect("request 1 is resident");
            assert_eq!(session.position(), 5);
            assert!(pool.take(1).is_none());
            assert!(pool.take(99).is_none());
        });
    }

    #[test]
    fn sticky_pool_matches_inline_decode_bitwise() {
        let engine = engine();
        let mut reference = engine.open_session();
        reference.prefill(&[1, 2, 3]);
        std::thread::scope(|scope| {
            let mut pool = WorkerPool::start(scope, 3);
            admit_all(&mut pool, &engine, &[(7, &[1, 2, 3])]);
            for _ in 0..5 {
                let expected = reference.decode_one();
                let (steps, failures) = partition(pool.step(&[plain(7)]));
                assert!(failures.is_empty());
                assert_eq!(steps.len(), 1);
                assert_eq!(steps[0].step.token, expected.token);
                assert_eq!(steps[0].worker, 7 % 3);
            }
        });
    }

    #[test]
    fn sticky_step_panic_loses_only_that_session() {
        let engine = engine();
        std::thread::scope(|scope| {
            let mut pool = WorkerPool::start(scope, 2);
            admit_all(&mut pool, &engine, &[(0, &[1, 2]), (1, &[4, 5, 6])]);
            let (steps, failures) = partition(pool.step(&[crashing(0), plain(1)]));
            assert_eq!(steps.len(), 1, "the healthy session survives");
            assert_eq!(steps[0].index, 1);
            assert_eq!(failures.len(), 1);
            assert_eq!(failures[0].index(), 0);
            // With no checkpoint the crashed session is gone from its
            // shard...
            assert!(pool.take(0).is_none());
            // ...and the survivor keeps ticking.
            let (steps, _) = partition(pool.step(&[plain(1)]));
            assert_eq!(steps.len(), 1);
        });
    }

    #[test]
    fn sticky_pool_runs_moved_tasks_on_the_owning_shard() {
        // The one thing that moves is the admission, and it goes to the
        // shard that will own the session.
        let engine = engine();
        std::thread::scope(|scope| {
            let mut pool = WorkerPool::start(scope, 2);
            let prefilled = admit_all(&mut pool, &engine, &[(4, &[1, 2]), (5, &[3, 4])]);
            assert_eq!(prefilled.len(), 2);
            for prefilled in &prefilled {
                assert_eq!(prefilled.worker, prefilled.index % 2);
                assert_eq!(prefilled.computed, 2);
            }
        });
    }

    #[test]
    fn results_name_the_shard_that_ran_them() {
        // Every result names the shard it ran on — shard 0, the caller's
        // thread, in a one-shard pool.
        let engine = engine();
        std::thread::scope(|scope| {
            let mut pool = WorkerPool::start(scope, 2);
            admit_all(&mut pool, &engine, &[(0, &[1, 2, 3]), (1, &[1, 2, 3])]);
            let (steps, _) = partition(pool.step(&[plain(0), plain(1)]));
            assert_eq!(steps.len(), 2);
            for step in &steps {
                assert_eq!(step.worker, step.index % 2);
            }
        });
        let mut pool = WorkerPool::default();
        let prefilled = admit_all(&mut pool, &engine, &[(1, &[1, 2, 3])]);
        assert_eq!(prefilled[0].worker, 0);
        let (steps, _) = partition(pool.step(&[plain(1)]));
        assert_eq!(steps[0].worker, 0);
    }

    #[test]
    fn parallel_metrics_crossings_per_tick_handles_zero_ticks() {
        let zero = ParallelMetrics::default();
        assert_eq!(zero.crossings_per_tick(), 0.0);
        let metrics = ParallelMetrics {
            queue_crossings: 12,
            sessions_migrated: 3,
            ticks: 4,
        };
        assert_eq!(metrics.crossings_per_tick(), 3.0);
    }

    #[test]
    fn worker_panics_propagate_and_leave_the_pool_reusable() {
        // A prefill that panics on its shard (an empty first prompt) comes
        // back as a failure naming the request instead of deadlocking the
        // coordinator, loses only its own session, and leaves the pool
        // serving the next batch.
        let engine = engine();
        std::thread::scope(|scope| {
            let mut pool = WorkerPool::start(scope, 2);
            let broken = Admission::new(1, engine.open_session(), Vec::new(), None);
            let results = pool.admit(vec![admission(&engine, 0, &[1, 2, 3]), broken]);
            assert_eq!(results.len(), 2);
            let failure = results
                .iter()
                .find_map(|result| result.as_ref().err())
                .expect("the empty prefill panicked");
            assert_eq!(failure.index(), 1);
            assert!(
                pool.take(1).is_none(),
                "a crashed prefill leaves no session"
            );
            let (steps, failures) = partition(pool.step(&[plain(0)]));
            assert_eq!(steps.len(), 1);
            assert!(failures.is_empty());
            admit_all(&mut pool, &engine, &[(7, &[4, 5, 6])]);
            let (steps, _) = partition(pool.step(&[plain(0), plain(7)]));
            assert_eq!(steps.len(), 2);
        });
    }

    #[test]
    fn misaddressed_steps_fail_naming_the_request() {
        // A step for an index the pool does not hold answers with a
        // failure naming the request — no hang, no silent loss...
        let engine = engine();
        std::thread::scope(|scope| {
            let mut pool = WorkerPool::start(scope, 2);
            admit_all(&mut pool, &engine, &[(0, &[1, 2, 3])]);
            let (steps, failures) = partition(pool.step(&[plain(0), plain(5)]));
            assert_eq!(steps.len(), 1);
            assert_eq!(failures.len(), 1);
            assert_eq!(failures[0].index(), 5);
            assert!(
                failures[0].message().contains("request 5 is not resident"),
                "message: {}",
                failures[0].message()
            );
        });
        // ...and so does a scheduler handed a second pool mid-run: its
        // session lives in its own.
        std::thread::scope(|scope| {
            let mut pool = WorkerPool::start(scope, 2);
            let mut scheduler = BatchScheduler::new(&engine);
            let request = scheduler.submit(ServeRequest::new(vec![1, 2, 3], 4));
            let error = scheduler
                .try_step_with(&mut pool)
                .expect_err("the pool never saw this session");
            match error {
                crate::chaos::ServeError::WorkerLost {
                    request: lost,
                    message,
                    ..
                } => {
                    assert_eq!(lost, request);
                    assert!(message.contains(&format!("request {request} is not resident")));
                }
            }
            // The request was shed, not left dangling: the batch finishes.
            assert!(scheduler.is_idle());
            let outcome = scheduler.finish().expect("idle");
            assert_eq!(
                outcome.outcomes[request].shed,
                Some(crate::chaos::ShedReason::WorkerLost)
            );
        });
    }
}
