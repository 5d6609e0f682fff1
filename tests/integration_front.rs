//! Front-end acceptance suite: the async submit/poll serving surface
//! (`kelle::front`) must deliver **bit-identical** token streams, traces,
//! probability-bearing fault statistics and batch metrics to the synchronous
//! `KelleEngine::serve` path, inline and `.parallel()` — for all five cache
//! policies and every worker count — while adding backpressure, mid-stream
//! cancel/drain and chaos tolerance on top.  Admission is deferred to the
//! tick boundary (`submit` only enqueues), which must be invisible too: a
//! seeded submit/pump/cancel/drain interleaving is compared, whole outcome
//! against whole outcome, with a scheduler admitting eagerly at every submit.
//!
//! The CI determinism gate runs this suite at explicit worker counts via
//! `KELLE_TEST_WORKERS` (comma-separated, default {1, 2, 4}) and chaos seeds
//! via `KELLE_CHAOS_SEEDS` (default {7, 11, 23}).

use kelle::front::{FrontConfig, StreamPoll, SubmitError, TokenStream};
use kelle::scheduler::ServeEvent;
use kelle::tier::TierConfig;
use kelle::{
    BatchOutcome, BatchScheduler, CachePolicy, ChaosConfig, InlineExecutor, KelleEngine,
    PrefixSharingConfig, SchedulerConfig, ServeOptions, ServeRequest, ServingFront, ShedReason,
    WorkerPool,
};

/// Worker counts under test: `KELLE_TEST_WORKERS` or {1, 2, 4} by default.
fn worker_counts() -> Vec<usize> {
    match std::env::var("KELLE_TEST_WORKERS") {
        Ok(raw) => raw
            .split(',')
            .map(|part| {
                part.trim()
                    .parse::<usize>()
                    .unwrap_or_else(|_| panic!("bad KELLE_TEST_WORKERS entry: {part:?}"))
            })
            .collect(),
        Err(_) => vec![1, 2, 4],
    }
}

/// Fault-plan seeds under test: `KELLE_CHAOS_SEEDS` or {7, 11, 23} by
/// default.
fn chaos_seeds() -> Vec<u64> {
    match std::env::var("KELLE_CHAOS_SEEDS") {
        Ok(raw) => raw
            .split(',')
            .map(|part| {
                part.trim()
                    .parse::<u64>()
                    .unwrap_or_else(|_| panic!("bad KELLE_CHAOS_SEEDS entry: {part:?}"))
            })
            .collect(),
        Err(_) => vec![7, 11, 23],
    }
}

/// Asserts two batch outcomes are bit-identical in every stream-affecting
/// observable.  Executor-protocol traffic (`parallel`) is a cost metric that
/// differs between inline and pooled execution, so it is not compared here.
fn assert_outcomes_identical(a: &BatchOutcome, b: &BatchOutcome, label: &str) {
    assert_eq!(a.outcomes.len(), b.outcomes.len(), "{label}: request count");
    for (i, (x, y)) in a.outcomes.iter().zip(b.outcomes.iter()).enumerate() {
        assert_eq!(x.generated, y.generated, "{label}: stream of request {i}");
        assert_eq!(x.trace, y.trace, "{label}: trace of request {i}");
        assert_eq!(x.cache, y.cache, "{label}: cache stats of request {i}");
        assert_eq!(x.faults, y.faults, "{label}: fault stats of request {i}");
        assert_eq!(x.hardware, y.hardware, "{label}: hardware of request {i}");
        assert_eq!(x.shed, y.shed, "{label}: shed reason of request {i}");
        assert_eq!(
            (x.prefilled_tokens, x.prefix_hit_tokens),
            (y.prefilled_tokens, y.prefix_hit_tokens),
            "{label}: prefill accounting of request {i}"
        );
    }
    assert_eq!(a.stats, b.stats, "{label}: aggregate stats");
    assert_eq!(a.contention, b.contention, "{label}: contention metrics");
    assert_eq!(a.prefix, b.prefix, "{label}: prefix metrics");
}

fn shared_prefix() -> Vec<usize> {
    (0..24).map(|i| (i * 7 + 5) % 512).collect()
}

/// One request per cache policy riding the shared prefix, with staggered
/// decode lengths, plus a non-prefix straggler with a seed override.
fn policy_mix() -> Vec<ServeRequest> {
    let prefix = shared_prefix();
    let mut requests: Vec<ServeRequest> = CachePolicy::all()
        .into_iter()
        .enumerate()
        .map(|(i, policy)| {
            let mut prompt = prefix.clone();
            prompt.extend([100 + i, 200 + i, 300 + i]);
            ServeRequest::builder(prompt)
                .decode_len(3 + i)
                .policy(policy)
                .build()
        })
        .collect();
    requests.push(
        ServeRequest::builder(vec![9, 8, 7, 6, 5, 4])
            .decode_len(4)
            .seed(1234)
            .build(),
    );
    requests
}

fn sharing_engine(seed: u64, workers: usize) -> KelleEngine {
    let engine = KelleEngine::builder()
        .prefix_sharing(PrefixSharingConfig::enabled())
        .seed(seed)
        .workers(workers)
        .build();
    assert!(engine.publish_prefix(&shared_prefix()));
    engine
}

/// Inline [`KelleEngine::serve`] under `config`.
fn serve(
    engine: &KelleEngine,
    requests: Vec<ServeRequest>,
    config: SchedulerConfig,
) -> BatchOutcome {
    engine
        .serve(requests, ServeOptions::new().with_scheduler(config))
        .expect("no chaos configured")
}

/// Drains one stream to its end, returning its tokens and terminal shed.
fn read_stream(
    front: &mut ServingFront<'_, '_>,
    stream: &TokenStream,
) -> (Vec<usize>, Option<ShedReason>) {
    let mut tokens = Vec::new();
    loop {
        match front.recv(stream) {
            StreamPoll::Token(token) => tokens.push(token),
            StreamPoll::Finished { shed } => return (tokens, shed),
            StreamPoll::Pending => panic!(
                "request {} stalled with the front unable to progress",
                stream.request()
            ),
        }
    }
}

#[test]
fn front_streams_are_bit_identical_to_synchronous_serving() {
    let sequential_engine = sharing_engine(7, 1);
    let sequential = serve(&sequential_engine, policy_mix(), SchedulerConfig::default());
    for workers in worker_counts() {
        let label = format!("workers={workers}");
        let engine = sharing_engine(7, workers);
        let (streams, outcome) = engine.front(FrontConfig::default(), |front| {
            let handles: Vec<TokenStream> = policy_mix()
                .into_iter()
                .map(|request| front.submit(request).expect("unbounded queue"))
                .collect();
            handles
                .iter()
                .map(|stream| read_stream(front, stream))
                .collect::<Vec<_>>()
        });
        assert_outcomes_identical(&sequential, &outcome, &label);
        for (i, ((tokens, shed), reference)) in
            streams.iter().zip(sequential.outcomes.iter()).enumerate()
        {
            assert_eq!(tokens, &reference.generated, "{label}: stream {i}");
            assert_eq!(*shed, None, "{label}: stream {i} finishes naturally");
        }
        assert_eq!(
            engine.prefix_stats(),
            sequential_engine.prefix_stats(),
            "{label}: prefix-store traffic"
        );
        // The synchronous parallel path runs the same pool and commits the
        // same batch, at the same queue traffic.
        let synchronous = sharing_engine(7, workers)
            .serve(policy_mix(), ServeOptions::new().parallel())
            .expect("no chaos configured");
        assert_outcomes_identical(&synchronous, &outcome, &format!("{label}, vs .parallel()"));
        assert_eq!(synchronous.parallel, outcome.parallel, "{label}");
    }
}

#[test]
fn a_full_admission_queue_rejects_typed_and_blocking_submit_waits() {
    let engine = sharing_engine(3, 2);
    // Capacity for roughly one resident request: everything else queues.
    let config = FrontConfig::default()
        .with_queue_capacity(1)
        .with_scheduler(
            SchedulerConfig::unbounded().with_kv_capacity_bytes(engine.kv_footprint_bytes(4)),
        );
    let requests: Vec<ServeRequest> = (0..4)
        .map(|i| ServeRequest::new(vec![10 + i, 20 + i, 30 + i], 3))
        .collect();
    let (rejections, outcome) = engine.front(config, |front| {
        let mut rejections = 0usize;
        let mut handles = Vec::new();
        for request in requests.clone() {
            match front.submit(request.clone()) {
                Ok(stream) => handles.push(stream),
                Err(SubmitError::QueueFull { waiting }) => {
                    assert_eq!(waiting, 1, "rejection reports the queue depth");
                    rejections += 1;
                    handles.push(
                        front
                            .submit_blocking(request)
                            .expect("blocking submit pumps a slot free"),
                    );
                }
                Err(SubmitError::Draining) => unreachable!("nothing drains here"),
            }
        }
        for stream in &handles {
            let (_, shed) = read_stream(front, stream);
            assert_eq!(shed, None);
        }
        rejections
    });
    assert!(
        rejections > 0,
        "the bounded queue must reject at least once"
    );
    let baseline = serve(
        &engine,
        requests,
        SchedulerConfig::unbounded().with_kv_capacity_bytes(engine.kv_footprint_bytes(4)),
    );
    for (a, b) in outcome.outcomes.iter().zip(baseline.outcomes.iter()) {
        assert_eq!(a.generated, b.generated, "backpressure never changes bits");
    }
}

#[test]
fn idle_paused_sessions_consume_no_queue_traffic() {
    let engine = KelleEngine::builder().seed(5).workers(2).build();
    let config = FrontConfig::default().with_stream_capacity(1);
    let requests: Vec<ServeRequest> = (0..4)
        .map(|i| ServeRequest::new(vec![i + 1, i + 7], 16))
        .collect();
    let ((), outcome) = engine.front(config, |front| {
        let handles: Vec<TokenStream> = requests
            .clone()
            .into_iter()
            .map(|request| front.submit(request).expect("unbounded queue"))
            .collect();
        // Pump until every stream is at capacity: all sessions paused.
        while front.pump() {}
        for stream in &handles {
            assert_eq!(stream.buffered(), 1, "each stream pauses at capacity");
        }
        let soak_start = *front.scheduler().parallel_metrics();
        // The soak: an idle (unpolled) fleet pumped hard must move nothing
        // across threads — the resident sessions stay on their shards.
        for _ in 0..50 {
            assert!(!front.pump(), "a fully paused front makes no progress");
        }
        let soaked = *front.scheduler().parallel_metrics();
        assert_eq!(
            soaked.queue_crossings, soak_start.queue_crossings,
            "idle pinned sessions must not cross the queue"
        );
        assert_eq!(soaked.sessions_migrated, 0, "pinning never migrates");
        // Wake the fleet back up and finish normally.
        for stream in &handles {
            let (tokens, shed) = read_stream(front, stream);
            assert_eq!(shed, None);
            assert_eq!(tokens.len(), 16, "the full decode, buffered token included");
        }
    });
    let baseline = serve(&engine, requests, SchedulerConfig::default());
    for (a, b) in outcome.outcomes.iter().zip(baseline.outcomes.iter()) {
        assert_eq!(a.generated, b.generated, "the soak never changes bits");
    }
}

#[test]
fn cancel_and_drain_through_the_front_release_every_byte() {
    let engine = sharing_engine(9, 2);
    let config = FrontConfig::default().with_scheduler(
        SchedulerConfig::default()
            .with_tiering(TierConfig::with_edram_budget(engine.kv_footprint_bytes(30))),
    );
    let ((), outcome) = engine.front(config, |front| {
        let doomed = front
            .submit(
                ServeRequest::builder({
                    let mut prompt = shared_prefix();
                    prompt.extend([401, 402]);
                    prompt
                })
                .decode_len(60)
                .build(),
            )
            .expect("unbounded queue");
        let survivor = front
            .submit(ServeRequest::new(vec![7, 7, 7], 5))
            .expect("unbounded queue");
        front.pump();
        front.pump();
        front.pump();
        assert!(front.cancel(doomed.request()), "cancel hits a live request");
        let (partial, shed) = read_stream(front, &doomed);
        assert_eq!(shed, Some(ShedReason::Cancelled));
        assert!(!partial.is_empty(), "cancel keeps the partial output");
        front.drain();
        assert!(
            matches!(
                front.submit(ServeRequest::new(vec![1], 1)),
                Err(SubmitError::Draining)
            ),
            "draining is terminal for admission"
        );
        let (_, shed) = read_stream(front, &survivor);
        assert_eq!(shed, None, "drain completes active requests");
        // Every byte is back: lease ledger empty, shared prefix detached.
        assert_eq!(front.scheduler().ledger().live_bytes(), 0);
        assert_eq!(front.scheduler().ledger().shared_bytes(), 0);
    });
    assert_eq!(outcome.outcomes[0].shed, Some(ShedReason::Cancelled));
    assert_eq!(outcome.outcomes[1].shed, None);
}

/// A tiered front configuration (eDRAM for the shared prefix plus six
/// tokens), with a recoverable every-class fault storm when `seed` is given.
fn stormy_front(engine: &KelleEngine, seed: Option<u64>) -> FrontConfig {
    let tiered = SchedulerConfig::default().with_tiering(TierConfig::with_edram_budget(
        engine.kv_footprint_bytes(shared_prefix().len() + 6),
    ));
    FrontConfig::default().with_scheduler(match seed {
        Some(seed) => tiered.with_chaos(
            ChaosConfig::default()
                .with_seed(seed)
                .with_worker_panics(200)
                .with_migration_faults(250)
                .with_ledger_blips(100)
                .with_max_retries(12),
        ),
        None => tiered,
    })
}

#[test]
fn chaos_storms_through_the_front_are_bit_identical_and_leak_free() {
    let baseline = serve(
        &sharing_engine(7, 1),
        policy_mix(),
        SchedulerConfig::default(),
    );
    for seed in chaos_seeds() {
        let label = format!("chaos seed={seed}");
        let engine = sharing_engine(7, 2);
        let config = stormy_front(&engine, Some(seed));
        let (streams, outcome) = engine.front(config, |front| {
            let handles: Vec<TokenStream> = policy_mix()
                .into_iter()
                .map(|request| front.submit(request).expect("unbounded queue"))
                .collect();
            let streams: Vec<_> = handles
                .iter()
                .map(|stream| read_stream(front, stream))
                .collect();
            assert!(
                front.worker_losses().is_empty(),
                "{label}: the replay budget must absorb every panic"
            );
            // Nothing leaks once the storm settles.
            assert_eq!(front.scheduler().ledger().live_bytes(), 0, "{label}");
            assert_eq!(front.scheduler().ledger().shared_bytes(), 0, "{label}");
            streams
        });
        for (i, ((tokens, shed), reference)) in
            streams.iter().zip(baseline.outcomes.iter()).enumerate()
        {
            assert_eq!(tokens, &reference.generated, "{label}: stream {i}");
            assert_eq!(*shed, None, "{label}: stream {i} survives the storm");
        }
        assert!(
            outcome.chaos.injected_panics > 0,
            "{label}: the storm must actually panic workers"
        );
        assert_eq!(outcome.chaos.lost_requests, 0, "{label}");
    }
}

/// Regression (failed while a `ChaosConfig` dropped the front back to moving
/// whole sessions every tick): a panic storm through the front keeps pinned
/// execution.  Checkpoints, restores and replays all happen on the shard, so
/// the storm's queue traffic is exactly the clean run's.
#[test]
fn chaos_through_the_front_keeps_sessions_pinned() {
    let baseline = serve(
        &sharing_engine(7, 1),
        policy_mix(),
        SchedulerConfig::default(),
    );
    let through_front = |engine: &KelleEngine, seed: Option<u64>| {
        let ((), outcome) = engine.front(stormy_front(engine, seed), |front| {
            for request in policy_mix() {
                front.submit(request).expect("unbounded queue");
            }
        });
        outcome
    };
    for workers in worker_counts() {
        let clean = through_front(&sharing_engine(7, workers), None);
        assert_eq!(
            clean.parallel.queue_crossings,
            2 * policy_mix().len() as u64
        );
        for seed in chaos_seeds() {
            let label = format!("workers={workers}, chaos seed={seed}");
            let stormy = through_front(&sharing_engine(7, workers), Some(seed));
            assert!(stormy.chaos.injected_panics > 0, "{label}: the storm fires");
            assert_eq!(stormy.chaos.lost_requests, 0, "{label}");
            assert_eq!(
                stormy.parallel.queue_crossings, clean.parallel.queue_crossings,
                "{label}: a storm moves no session"
            );
            assert_eq!(stormy.parallel.sessions_migrated, 0, "{label}");
            for (i, (x, y)) in baseline.outcomes.iter().zip(&stormy.outcomes).enumerate() {
                assert_eq!(x.generated, y.generated, "{label}: stream {i}");
                assert_eq!(x.trace, y.trace, "{label}: trace {i}");
                assert_eq!(x.faults, y.faults, "{label}: fault stats {i}");
                assert_eq!(x.hardware, y.hardware, "{label}: hardware {i}");
                assert_eq!(y.shed, None, "{label}: request {i} survives");
            }
        }
    }
}

#[test]
fn sessions_cross_the_queue_twice_per_life_on_front_and_serve() {
    // The price of pinned residency: one crossing in with the prefill, one
    // out when taken, none per tick — on the front and on the synchronous
    // path alike.
    for workers in worker_counts() {
        let engine = KelleEngine::builder().seed(13).workers(workers).build();
        let fleet: Vec<ServeRequest> = (0..6)
            .map(|i| ServeRequest::new(vec![i + 1, i + 2, i + 3], 24))
            .collect();
        let requests = fleet.clone();
        let ((), front) = engine.front(FrontConfig::default(), move |front| {
            for request in requests {
                front.submit(request).expect("unbounded queue");
            }
        });
        let synchronous = engine
            .serve(fleet.clone(), ServeOptions::new().parallel())
            .expect("no chaos configured");
        for (a, b) in front.outcomes.iter().zip(synchronous.outcomes.iter()) {
            assert_eq!(a.generated, b.generated, "workers={workers}");
        }
        for outcome in [&front, &synchronous] {
            assert_eq!(outcome.parallel.ticks, 24, "workers={workers}");
            assert_eq!(
                outcome.parallel.queue_crossings,
                2 * fleet.len() as u64,
                "workers={workers}: two crossings per session, whatever its lifetime"
            );
            assert_eq!(
                outcome.parallel.sessions_migrated, 0,
                "workers={workers}: pinning never migrates"
            );
        }
        let inline = engine
            .serve(fleet, ServeOptions::new())
            .expect("no chaos configured");
        assert_eq!(inline.parallel.queue_crossings, 0, "inline never crosses");
    }
}

#[test]
fn shed_reasons_surface_through_the_event_stream_as_they_happen() {
    // Satellite regression: the streaming path used to report sheds only in
    // the final outcome; `ServeEvent::Shed` must now deliver them live.
    let engine = KelleEngine::builder().seed(3).build();
    let capacity = engine.kv_footprint_bytes(4);
    let config = SchedulerConfig::default().with_kv_capacity_bytes(capacity);
    let mut scheduler = BatchScheduler::with_config(&engine, config);
    let mut executor = InlineExecutor::default();
    scheduler.submit_with(
        ServeRequest::builder(vec![1, 2, 3, 4])
            .decode_len(10)
            .deadline_ticks(4)
            .build(),
        &mut executor,
    );
    scheduler.submit_with(
        ServeRequest::builder(vec![5, 6, 7, 8])
            .decode_len(2)
            .queue_timeout_ticks(2)
            .build(),
        &mut executor,
    );
    assert_eq!(scheduler.waiting(), 1, "the fixture must queue request 1");
    let mut tokens = Vec::new();
    let mut sheds = Vec::new();
    let outcome = scheduler
        .run_with(&mut executor, |event| match event {
            ServeEvent::Token { request, token, .. } => tokens.push((request, token)),
            ServeEvent::Shed { request, reason } => sheds.push((request, reason)),
        })
        .expect("no chaos: no worker can be lost");
    assert_eq!(
        sheds,
        vec![
            (1, ShedReason::QueueTimeout),
            (0, ShedReason::DeadlineExceeded),
        ],
        "both sheds surface live, in the order they happened"
    );
    assert_eq!(
        tokens.len(),
        outcome.outcomes[0].generated.len(),
        "the deadline request streamed its partial output before shedding"
    );
    assert_eq!(outcome.outcomes[0].shed, Some(ShedReason::DeadlineExceeded));
    assert_eq!(outcome.outcomes[1].shed, Some(ShedReason::QueueTimeout));
    // The same sheds terminate front-end streams with their reasons.
    let ((), _) = engine.front(
        FrontConfig::default()
            .with_scheduler(SchedulerConfig::default().with_kv_capacity_bytes(capacity)),
        |front| {
            let deadline = front
                .submit(
                    ServeRequest::builder(vec![1, 2, 3, 4])
                        .decode_len(10)
                        .deadline_ticks(4)
                        .build(),
                )
                .expect("unbounded queue");
            let timeout = front
                .submit(
                    ServeRequest::builder(vec![5, 6, 7, 8])
                        .decode_len(2)
                        .queue_timeout_ticks(2)
                        .build(),
                )
                .expect("queue capacity is unbounded; KV capacity queues it");
            let (partial, shed) = read_stream(front, &deadline);
            assert_eq!(shed, Some(ShedReason::DeadlineExceeded));
            assert_eq!(partial.len(), 4, "4 deadline ticks yield 4 tokens");
            let (none, shed) = read_stream(front, &timeout);
            assert_eq!(shed, Some(ShedReason::QueueTimeout));
            assert!(none.is_empty(), "a queue timeout never decoded");
        },
    );
}

/// Pins the rejection sequence of a bounded queue across deferred admission:
/// capacity for one active session and room for one waiting request reject
/// exactly the third back-to-back submit, reporting one request waiting — the
/// verdicts eager admission at every submit gives.
#[test]
fn queue_full_fires_for_the_same_submits_as_eager_admission() {
    let engine = KelleEngine::builder().seed(3).workers(2).build();
    let config = FrontConfig::default()
        .with_queue_capacity(1)
        .with_scheduler(
            SchedulerConfig::unbounded().with_kv_capacity_bytes(engine.kv_footprint_bytes(4)),
        );
    let request = |i: usize| ServeRequest::new(vec![10 + i, 20 + i, 30 + i], 3);
    let ((), outcome) = engine.front(config, |front| {
        assert!(front.submit(request(0)).is_ok());
        // Submitted, not yet admitted: the request waits until the next pump.
        assert_eq!(front.scheduler().active(), 0);
        assert_eq!(front.scheduler().waiting(), 1);
        assert!(front.submit(request(1)).is_ok());
        assert_eq!(
            front.submit(request(2)).unwrap_err(),
            SubmitError::QueueFull { waiting: 1 }
        );
        // The capacity check settled admission: request 0 runs, 1 waits.
        assert_eq!(front.scheduler().active(), 1);
        assert_eq!(front.scheduler().waiting(), 1);
    });
    assert_eq!(outcome.outcomes.len(), 2);
    assert!(outcome.outcomes.iter().all(|o| o.shed.is_none()));
}

/// SplitMix64: the interleaving test's only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One call on the serving surface.
#[derive(Debug, Clone)]
enum Op {
    Submit(ServeRequest),
    Pump,
    Cancel(usize),
    Drain,
}

const SYSTEM_LEN: usize = 8;

/// A seeded call sequence: bursts of submits (every cache policy in turn;
/// one prompt in three starts with a system prompt nobody published, so its
/// first cold prefill auto-publishes it mid-burst) between pumps, with the
/// odd cancel and — in the last third, at most once — a drain.
fn interleaving(seed: u64) -> Vec<Op> {
    let mut rng = Rng(seed);
    let policies = CachePolicy::all();
    let system: Vec<usize> = (0..SYSTEM_LEN).map(|i| (i * 11 + 3) % 512).collect();
    let (mut ops, mut submitted, mut drained) = (Vec::new(), 0usize, false);
    for step in 0..48 {
        match rng.below(20) {
            0..=8 => {
                let mut prompt = if submitted % 3 == 1 {
                    system.clone()
                } else {
                    Vec::new()
                };
                let unique = 2 + rng.below(10);
                prompt.extend((0..unique).map(|i| (submitted * 37 + i * 13 + 1) % 512));
                ops.push(Op::Submit(
                    ServeRequest::builder(prompt)
                        .decode_len(1 + rng.below(6))
                        .policy(policies[submitted % policies.len()])
                        .build(),
                ));
                submitted += 1;
            }
            9..=16 => ops.push(Op::Pump),
            17 | 18 if submitted > 0 => ops.push(Op::Cancel(rng.below(submitted))),
            19 if step > 32 && !drained => {
                drained = true;
                ops.push(Op::Drain);
            }
            _ => ops.push(Op::Pump),
        }
    }
    ops
}

/// An engine whose prefix store starts empty and auto-publishes.
fn interleaving_engine(workers: usize) -> KelleEngine {
    KelleEngine::builder()
        .prefix_sharing(PrefixSharingConfig::enabled().with_auto_publish(SYSTEM_LEN))
        .seed(17)
        .workers(workers)
        .build()
}

const QUEUE_CAPACITY: usize = 3;

/// eDRAM for about two of the scenario's sessions, so admission queues and
/// tiers migrate; under `chaos_seed` a quarter of the reservations that
/// would fit blip and a quarter of the migrations fail.
fn interleaving_config(engine: &KelleEngine, chaos_seed: Option<u64>) -> SchedulerConfig {
    let tiered = SchedulerConfig::default().with_tiering(TierConfig::with_edram_budget(
        engine.kv_footprint_bytes(2 * SYSTEM_LEN + 12),
    ));
    match chaos_seed {
        Some(seed) => tiered.with_chaos(
            ChaosConfig::default()
                .with_seed(seed)
                .with_ledger_blips(250)
                .with_migration_faults(250),
        ),
        None => tiered,
    }
}

/// The interleaving through a [`ServingFront`]: `submit` only enqueues and
/// admission happens at the next pump, cancel, drain or capacity check.
/// Returns, per submit, whether the queue rejected it.
fn through_the_front(
    ops: &[Op],
    workers: usize,
    chaos_seed: Option<u64>,
) -> (Vec<bool>, BatchOutcome) {
    let engine = interleaving_engine(workers);
    let config = FrontConfig::default()
        .with_queue_capacity(QUEUE_CAPACITY)
        .with_scheduler(interleaving_config(&engine, chaos_seed));
    engine.front(config, |front| {
        let mut rejected = Vec::new();
        for op in ops {
            match op {
                Op::Submit(request) => match front.submit(request.clone()) {
                    Ok(_) => rejected.push(false),
                    Err(SubmitError::QueueFull { .. }) => rejected.push(true),
                    Err(SubmitError::Draining) => {}
                },
                Op::Pump => {
                    front.pump();
                }
                Op::Cancel(request) => {
                    front.cancel(*request);
                }
                Op::Drain => front.drain(),
            }
        }
        rejected
    })
}

/// The reference: the same calls on a hand-driven [`BatchScheduler`] that
/// admits eagerly — `submit_with` runs the prefill before it returns.
fn eagerly_by_hand(
    ops: &[Op],
    workers: usize,
    chaos_seed: Option<u64>,
) -> (Vec<bool>, BatchOutcome) {
    let engine = interleaving_engine(workers);
    let config = interleaving_config(&engine, chaos_seed);
    std::thread::scope(|scope| {
        let mut pool = WorkerPool::start(scope, workers);
        let mut scheduler = BatchScheduler::with_config(&engine, config);
        let mut rejected = Vec::new();
        for op in ops {
            match op {
                Op::Submit(_) if scheduler.is_draining() => {}
                Op::Submit(request) => {
                    let full = scheduler.waiting() >= QUEUE_CAPACITY;
                    rejected.push(full);
                    if !full {
                        scheduler.submit_with(request.clone(), &mut pool);
                    }
                }
                Op::Pump if scheduler.is_idle() => {}
                Op::Pump => {
                    scheduler
                        .try_step_with(&mut pool)
                        .expect("no worker panics configured");
                }
                Op::Cancel(request) => {
                    scheduler.cancel_with(*request, &mut pool);
                }
                Op::Drain => scheduler
                    .drain_with(&mut pool)
                    .expect("no worker panics configured"),
            }
        }
        let outcome = scheduler
            .run_with(&mut pool, |_| {})
            .expect("no worker panics configured");
        (rejected, outcome)
    })
}

/// Deferred admission is invisible: whatever the interleaving of submits,
/// pumps, cancels and drains, the front produces the `BatchOutcome` of a
/// scheduler that admits at every submit — streams, probability bits, fault
/// statistics, timings, SLO report, contention, prefix, tiering, chaos and
/// executor-traffic metrics, and the same `QueueFull` verdicts.
#[test]
fn deferred_admission_matches_eager_admission_under_any_interleaving() {
    let chaos: Vec<Option<u64>> = std::iter::once(None)
        .chain(chaos_seeds().into_iter().map(Some))
        .collect();
    let (mut batched, mut blips, mut hits) = (false, 0, 0);
    for scenario in [1u64, 2, 3] {
        let ops = interleaving(scenario);
        batched |= ops
            .windows(2)
            .any(|pair| matches!(pair, [Op::Submit(_), Op::Submit(_)]));
        for workers in worker_counts() {
            for &chaos_seed in &chaos {
                let label = format!("scenario={scenario}, workers={workers}, chaos={chaos_seed:?}");
                let (front_rejected, front) = through_the_front(&ops, workers, chaos_seed);
                let (eager_rejected, eager) = eagerly_by_hand(&ops, workers, chaos_seed);
                assert_eq!(
                    front_rejected, eager_rejected,
                    "{label}: QueueFull verdicts"
                );
                assert_outcomes_identical(&eager, &front, &label);
                assert_eq!(eager.slo, front.slo, "{label}: SLO report");
                assert_eq!(eager.tiering, front.tiering, "{label}: tiering metrics");
                assert_eq!(eager.chaos, front.chaos, "{label}: chaos metrics");
                assert_eq!(eager.parallel, front.parallel, "{label}: executor traffic");
                blips += front.chaos.ledger_blips;
                hits += front.prefix.hit_requests;
            }
        }
    }
    // The scenarios exercise what could tell the two apart.
    assert!(batched, "some submits must arrive back to back");
    assert!(blips > 0, "some reservation must blip");
    assert!(hits > 0, "some request must hit a prefix published mid-run");
}
