//! Threaded serving back-end: deterministic multi-worker decode over the
//! batch scheduler, through one resident-session tick protocol.
//!
//! Kelle's serving story keeps the accelerator fed by many concurrent
//! sessions whose KV state *stays put*.  The functional model has the same
//! shape: a session lives on its executor from admission to finalization,
//! and only results cross back to the coordinator.
//!
//! # The protocol
//!
//! The [`BatchScheduler`] drives every tick through a [`StepExecutor`]:
//!
//! 1. [`admit`](StepExecutor::admit) — run a planned prefill *where the
//!    session will live* and keep it there; a [`Prefilled`] (cursors and a
//!    hit count, no session) comes back.
//! 2. [`step`](StepExecutor::step) — decode one token on each named resident
//!    session; a [`ResidentStep`] per survivor and a [`TaskFailure`] per
//!    panicked step come back.
//! 3. [`take`](StepExecutor::take) — hand a session back for completion,
//!    shed or cancellation.
//!
//! Both executors run the same private shard body: [`InlineExecutor`] on the
//! caller's thread, [`WorkerPool`] on each of its threads behind a mailbox,
//! with request `index` pinned to shard `index % workers`.  A session costs
//! two queue crossings in its lifetime (in with its prefill, out when taken),
//! none per tick, and never migrates — [`ParallelMetrics`] reports both.
//! Everything else stays on the coordinator: the waiting queue, admission
//! decisions and their prefix-store *plans* (in admission order; a plan that
//! will publish a prefix is flushed before the next is made), the
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
//! [`BatchOutcome`] metric are therefore bit-identical to single-threaded
//! serving at every worker count, panic storm or not — CI gates it at
//! `KELLE_TEST_WORKERS=1,2,4` with the
//! `integration_{parallel,front,chaos}` suites.
//!
//! [`BatchScheduler`]: crate::scheduler::BatchScheduler
//! [`BatchOutcome`]: crate::scheduler::BatchOutcome
//! [`ChaosConfig`]: crate::chaos::ChaosConfig

use crate::chaos::Checkpoint;
use crate::session::{PrefillPlan, Session};
use kelle_model::DecodeStep;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::Scope;

/// Cross-thread traffic counters for one batch, reported on
/// [`BatchOutcome::parallel`](crate::scheduler::BatchOutcome::parallel).
///
/// These measure the *executor protocol*, not the streams: every executor
/// produces bit-identical tokens.  Inline execution moves nothing across
/// threads and counts zero crossings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParallelMetrics {
    /// Whole-session cross-thread transfers: +1 when a session goes to its
    /// pool shard with its prefill, +1 when it is taken back.  Step results
    /// move no session and count zero, so a tick costs nothing here.
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
/// session together with its planned prefill (the plan was resolved on the
/// coordinator; `Cold`/`Hit` executions touch no shared state).
#[derive(Debug)]
pub struct Admission<'e> {
    index: usize,
    session: Session<'e>,
    tokens: Vec<usize>,
    plan: PrefillPlan,
}

impl<'e> Admission<'e> {
    pub(crate) fn new(
        index: usize,
        session: Session<'e>,
        tokens: Vec<usize>,
        plan: PrefillPlan,
    ) -> Self {
        Admission {
            index,
            session,
            tokens,
            plan,
        }
    }

    /// The request index (submission order) being admitted.
    pub fn index(&self) -> usize {
        self.index
    }
}

/// What comes back from a completed [`Admission`]: everything the coordinator
/// needs to activate the slot — and not the session, which stays resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prefilled {
    /// The request index the session belongs to.
    pub index: usize,
    /// Prompt tokens whose prefill was actually computed.
    pub computed: usize,
    /// Prompt tokens replayed from a shared prefix segment instead.
    pub prefix_hit_tokens: usize,
    /// Session position after the prefill.
    pub position: usize,
    /// The pool shard the session now lives on (`None`: inline, on the
    /// caller's thread).
    pub worker: Option<usize>,
}

/// One session's share of a decode fan-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepRequest {
    /// The resident session to step.
    pub index: usize,
    /// Chaos: checkpoint the session before stepping (it sits at a committed
    /// boundary) so a panicked step can be restored in place.  Set on the
    /// first attempt of a tick, clear on replays — the boundary has not
    /// moved.
    pub checkpoint: bool,
    /// Chaos: panic *after* the step computes, so the mutated session is
    /// genuinely lost mid-tick (the strongest case for checkpoint/replay).
    pub sabotage: bool,
}

/// One decode step of a resident session: everything the coordinator needs
/// to commit the tick, and nothing else.
#[derive(Debug, Clone)]
pub struct ResidentStep {
    /// The request index (submission order) the step belongs to.
    pub index: usize,
    /// The decoded step (token, probability bits, fault draws).
    pub step: DecodeStep,
    /// Session position before the step (for the lease-growth delta).
    pub tokens_before: usize,
    /// Session position after the step (the coordinator's cursor mirror —
    /// it cannot ask the session directly).
    pub position: usize,
    /// The shard that ran the step (`None`: inline).
    pub worker: Option<usize>,
}

/// A prefill or step that could not run to completion — it panicked, or it
/// named a session this executor does not hold.  The tick survives: other
/// results still commit and the scheduler decides between replay and shed.
#[derive(Debug, Clone)]
pub struct TaskFailure {
    index: usize,
    message: String,
}

impl TaskFailure {
    /// The request index whose prefill or step failed.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The stringified panic payload, or why the request could not be run.
    pub fn message(&self) -> &str {
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

/// Where sessions live while the [`BatchScheduler`](crate::scheduler::BatchScheduler)
/// serves them (see the [module docs](self) for the protocol).
///
/// Results may come back in any order — the scheduler re-establishes
/// determinism at commit time by sorting on request index — but every
/// admission and every step request is answered exactly once, and a panic
/// inside one never unwinds the caller or disturbs another session.  A
/// scheduler must be driven through one executor from its first submission
/// to its last take: sessions admitted to one executor are not resident on
/// another, whose steps for them fail with a [`TaskFailure`] naming the
/// request.
pub trait StepExecutor<'e> {
    /// Runs every planned prefill on the shard its session is pinned to and
    /// leaves the session resident there.  A panicked prefill loses its
    /// session and reports a [`TaskFailure`].
    fn admit(&mut self, admissions: Vec<Admission<'e>>) -> Vec<Result<Prefilled, TaskFailure>>;

    /// Decodes one step on each named resident session without moving it.
    /// A panicked step restores the session from its checkpoint in place
    /// when it has one ([`StepRequest::checkpoint`]) and drops it otherwise.
    fn step(&mut self, requests: &[StepRequest]) -> Vec<Result<ResidentStep, TaskFailure>>;

    /// Takes the resident session for `index` back (completion, shed,
    /// cancellation); `None` when this executor does not hold it.
    fn take(&mut self, index: usize) -> Option<Session<'e>>;
}

/// A resident session and, under chaos, its last committed boundary.
#[derive(Debug)]
struct Resident<'e> {
    session: Session<'e>,
    checkpoint: Option<Checkpoint<'e>>,
}

/// The one body of the resident-session protocol: a map of the sessions that
/// live here and the three operations on it.  [`InlineExecutor`] is one
/// shard on the caller's thread; a [`WorkerPool`] is one per worker thread.
#[derive(Debug, Default)]
struct Shard<'e> {
    /// Pool shard id stamped on results (`None`: inline).
    worker: Option<usize>,
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
            position: session.position(),
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
            let place = match self.worker {
                Some(shard) => format!("pool shard {shard}"),
                None => "the inline executor".to_string(),
            };
            return Err(TaskFailure {
                index,
                message: format!(
                    "request {index} is not resident on {place}: \
                     it was admitted through a different executor, or already taken"
                ),
            });
        };
        if checkpoint {
            resident.checkpoint = Some(Checkpoint::capture(&resident.session));
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
                    Some(checkpoint) => resident.session = checkpoint.restore(),
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

/// Keeps every session on the calling thread and steps them in order — the
/// executor behind the classic single-threaded
/// [`BatchScheduler::step`](crate::scheduler::BatchScheduler::step) /
/// [`BatchScheduler::submit`](crate::scheduler::BatchScheduler::submit).
#[derive(Debug, Default)]
pub struct InlineExecutor<'e> {
    shard: Shard<'e>,
}

impl<'e> StepExecutor<'e> for InlineExecutor<'e> {
    fn admit(&mut self, admissions: Vec<Admission<'e>>) -> Vec<Result<Prefilled, TaskFailure>> {
        admissions
            .into_iter()
            .map(|admission| self.shard.admit(admission))
            .collect()
    }

    fn step(&mut self, requests: &[StepRequest]) -> Vec<Result<ResidentStep, TaskFailure>> {
        requests
            .iter()
            .map(|&request| self.shard.step(request))
            .collect()
    }

    fn take(&mut self, index: usize) -> Option<Session<'e>> {
        self.shard.take(index)
    }
}

/// What the coordinator asks of one shard.  A shard's mailbox is FIFO, so an
/// `Admit` is always observed before the `Step`/`Take` that names it.
enum Command<'e> {
    // Boxed: an admission carries a whole session, dwarfing the other two —
    // and it is sent once per session, not once per tick.
    Admit(Box<Admission<'e>>),
    /// Step these resident sessions (all pinned to this shard).
    Step(Vec<StepRequest>),
    Take(usize),
}

/// The pooled executor: `workers` scoped threads, each one shard of the
/// resident-session protocol behind its own mailbox.  Request `index` lives
/// on shard `index % workers` from its admission prefill until it is taken,
/// so per tick one small command goes to each busy shard and one
/// [`ResidentStep`] per session comes back.
///
/// The pool is tied to a [`std::thread::scope`] so sessions may borrow the
/// engine (`Session<'e>` holds `&'e KelleEngine`) without any `'static`
/// gymnastics; dropping the pool closes the mailboxes and the scope joins the
/// workers, who drop whatever sessions they still hold.  Panics inside a
/// prefill or a step are caught on the shard and answered as
/// [`TaskFailure`]s — a crashed session can never leave the coordinator
/// waiting for a reply that will not come.
#[derive(Debug)]
pub struct WorkerPool<'e> {
    /// One mailbox per shard, indexed by shard id.
    mailboxes: Vec<Sender<Command<'e>>>,
    prefilled: Receiver<Result<Prefilled, TaskFailure>>,
    steps: Receiver<Result<ResidentStep, TaskFailure>>,
    taken: Receiver<Option<Session<'e>>>,
}

impl<'e> WorkerPool<'e> {
    /// Spawns `workers` (clamped to at least 1) scoped worker threads.
    pub fn start<'scope>(scope: &'scope Scope<'scope, '_>, workers: usize) -> WorkerPool<'e>
    where
        'e: 'scope,
    {
        let workers = workers.max(1);
        let (prefilled_tx, prefilled) = channel();
        let (steps_tx, steps) = channel();
        let (taken_tx, taken) = channel();
        let mailboxes = (0..workers)
            .map(|id| {
                let (mailbox, commands) = channel::<Command<'e>>();
                let prefilled: Sender<Result<Prefilled, TaskFailure>> = prefilled_tx.clone();
                let steps: Sender<Result<ResidentStep, TaskFailure>> = steps_tx.clone();
                let taken: Sender<Option<Session<'e>>> = taken_tx.clone();
                scope.spawn(move || {
                    let mut shard = Shard {
                        worker: Some(id),
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
            mailboxes,
            prefilled,
            steps,
            taken,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.mailboxes.len()
    }

    /// The shard that owns request `index` — the pinning function.
    fn shard_of(&self, index: usize) -> usize {
        index % self.workers()
    }

    fn send(&self, shard: usize, command: Command<'e>) {
        self.mailboxes[shard]
            .send(command)
            .expect("workers outlive the pool (scoped) and keep their mailboxes open");
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

impl<'e> StepExecutor<'e> for WorkerPool<'e> {
    fn admit(&mut self, admissions: Vec<Admission<'e>>) -> Vec<Result<Prefilled, TaskFailure>> {
        let count = admissions.len();
        for admission in admissions {
            let shard = self.shard_of(admission.index());
            self.send(shard, Command::Admit(Box::new(admission)));
        }
        drain(&self.prefilled, count)
    }

    fn step(&mut self, requests: &[StepRequest]) -> Vec<Result<ResidentStep, TaskFailure>> {
        let mut per_shard = vec![Vec::new(); self.workers()];
        for &request in requests {
            per_shard[self.shard_of(request.index)].push(request);
        }
        for (shard, requests) in per_shard.into_iter().enumerate() {
            if !requests.is_empty() {
                self.send(shard, Command::Step(requests));
            }
        }
        drain(&self.steps, requests.len())
    }

    fn take(&mut self, index: usize) -> Option<Session<'e>> {
        self.send(self.shard_of(index), Command::Take(index));
        drain(&self.taken, 1).pop().flatten()
    }
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
        executor: &mut dyn StepExecutor<'e>,
        engine: &'e KelleEngine,
        fleet: &[(usize, &[usize])],
    ) -> Vec<Prefilled> {
        let admissions = fleet
            .iter()
            .map(|&(index, tokens)| admission(engine, index, tokens))
            .collect();
        let mut prefilled: Vec<Prefilled> = executor
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
        // and the crossing count pins that a tick costs nothing.
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
            }
            assert_eq!(baseline.parallel.queue_crossings, 0, "inline never crosses");
        }
    }

    #[test]
    fn both_axes_match_inline_decode_in_probability_bits_for_all_policies() {
        use kelle_cache::CachePolicy;
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
        // shard its work but before draining the reply — must still join the
        // pool cleanly.  Dropping the pool closes the mailboxes, the worker
        // finishes the in-flight command (its reply fails once the receiver
        // is gone) and exits; the scope joins instead of hanging.
        let engine = engine();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                let pool: WorkerPool<'_> = WorkerPool::start(scope, 2);
                let admission = admission(&engine, 0, &[1, 2, 3]);
                pool.send(0, Command::Admit(Box::new(admission)));
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
            assert_eq!(steps[0].worker, Some(0));
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
        let mut inline = InlineExecutor::default();
        admit_all(&mut inline, &engine, &[(5, &[1, 2, 3])]);
        let sabotaged = StepRequest {
            index: 5,
            checkpoint: true,
            sabotage: true,
        };
        let (steps, failures) = partition(inline.step(&[sabotaged]));
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
        let (steps, _) = partition(inline.step(&[plain(5)]));
        assert_eq!(steps[0].tokens_before, 3);
        let (_, failures) = partition(inline.step(&[crashing(5)]));
        assert_eq!(failures.len(), 1);
        let restored = inline.take(5).expect("restored in place, not lost");
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
                assert_eq!(step.worker, Some(i % 2));
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
                assert_eq!(steps[0].worker, Some(7 % 3));
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
                assert_eq!(prefilled.worker, Some(prefilled.index % 2));
                assert_eq!(prefilled.computed, 2);
                assert_eq!(prefilled.position, 2);
            }
        });
    }

    #[test]
    fn results_name_the_shard_that_ran_them() {
        // Every result names where it ran: a pool shard, or nowhere but the
        // caller's thread.
        let engine = engine();
        std::thread::scope(|scope| {
            let mut pool = WorkerPool::start(scope, 2);
            admit_all(&mut pool, &engine, &[(0, &[1, 2, 3]), (1, &[1, 2, 3])]);
            let (steps, _) = partition(pool.step(&[plain(0), plain(1)]));
            assert_eq!(steps.len(), 2);
            for step in &steps {
                assert!(matches!(step.worker, Some(w) if w < 2));
            }
        });
        let mut inline = InlineExecutor::default();
        let prefilled = admit_all(&mut inline, &engine, &[(0, &[1, 2, 3])]);
        assert_eq!(prefilled[0].worker, None);
        let (steps, _) = partition(inline.step(&[plain(0)]));
        assert_eq!(steps[0].worker, None);
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
            let broken = Admission::new(1, engine.open_session(), Vec::new(), PrefillPlan::Cold);
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
        // A step for an index the executor does not hold answers with a
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
        // ...and so does a scheduler handed a second executor mid-run: its
        // session lives in the first one.
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
