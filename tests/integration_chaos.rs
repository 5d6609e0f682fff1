//! Chaos-hardening acceptance suite: deterministic fault injection
//! (`kelle::chaos`) must leave every surviving token stream, per-step trace,
//! probability-bearing fault statistics and per-request hardware outcomes
//! **bit-identical** to a fault-free run — for all five cache policies,
//! both decode shapes (a wide mix that fills its shards, one-session
//! batches that leave the other shards idle), every worker count, with
//! tiering enabled so transient migration faults fire alongside worker panics
//! and admission blips.  Shedding (deadlines, queue timeouts, `cancel`, `drain`) and the
//! typed [`ServeError::WorkerLost`] exit must release every byte they held.
//!
//! Like the parallel and tiering suites, the CI determinism gate runs this
//! file at explicit worker counts via `KELLE_TEST_WORKERS` (comma-separated,
//! default {1, 2, 4}) and chaos seeds via `KELLE_CHAOS_SEEDS` (default
//! {7, 11, 23}).

use kelle::tier::{TierConfig, TierUsageMetrics, TieringMetrics};
use kelle::{
    BatchOutcome, BatchScheduler, CachePolicy, ChaosConfig, ChaosMetrics, KelleEngine,
    PrefixSharingConfig, SchedulerConfig, ServeError, ServeOptions, ServeRequest, ShedReason,
    WorkerPool,
};
use proptest::prelude::*;

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

/// Asserts the functional and hardware observables of two batches are
/// bit-identical, request by request.  Queueing metrics are *not* compared:
/// recovery replays and ledger blips delay ticks by design, without touching
/// any stream.
fn assert_streams_identical(a: &BatchOutcome, b: &BatchOutcome, label: &str) {
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
    assert_eq!(a.stats.requests, b.stats.requests, "{label}: request tally");
    assert_eq!(
        a.stats.tokens_generated, b.stats.tokens_generated,
        "{label}: token tally"
    );
}

fn shared_prefix() -> Vec<usize> {
    (0..24).map(|i| (i * 7 + 5) % 512).collect()
}

/// One request per cache policy riding the shared prefix, with staggered
/// decode lengths, plus a non-prefix straggler.
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

/// [`KelleEngine::serve`] under `config`, fanned out across the engine's
/// workers.
fn serve_parallel(
    engine: &KelleEngine,
    requests: Vec<ServeRequest>,
    config: SchedulerConfig,
) -> Result<BatchOutcome, ServeError> {
    engine.serve(
        requests,
        ServeOptions::new().parallel().with_scheduler(config),
    )
}

/// A hostile-but-recoverable fault plan: every class injects, the replay
/// budget is sized so no request is ever lost.
fn storm(seed: u64) -> ChaosConfig {
    ChaosConfig::default()
        .with_seed(seed)
        .with_worker_panics(200)
        .with_migration_faults(250)
        .with_ledger_blips(100)
        .with_max_retries(12)
}

/// A tiering config whose eDRAM holds roughly `tokens` full-scale KV tokens
/// — small enough that the policy mix migrates constantly, giving the
/// migration-fault stream something to hit.
fn tiny_tiering(engine: &KelleEngine, tokens: usize) -> TierConfig {
    TierConfig::with_edram_budget(engine.kv_footprint_bytes(tokens))
}

/// Serves `requests` through the storm on an eDRAM of `edram_tokens` and
/// asserts full recovery against the fault-free `baseline`.  Returns the
/// chaotic outcome.
fn assert_storm_recovers(
    engine: &KelleEngine,
    requests: Vec<ServeRequest>,
    edram_tokens: usize,
    baseline: &BatchOutcome,
    seed: u64,
    label: &str,
) -> BatchOutcome {
    let config = SchedulerConfig::default()
        .with_tiering(tiny_tiering(engine, edram_tokens))
        .with_chaos(storm(seed));
    let chaotic =
        serve_parallel(engine, requests, config).unwrap_or_else(|error| panic!("{label}: {error}"));
    assert_streams_identical(baseline, &chaotic, label);
    assert_eq!(
        chaotic.chaos.lost_requests, 0,
        "{label}: the replay budget must absorb every panic"
    );
    assert_eq!(
        chaotic.chaos.restored_sessions, chaotic.chaos.replayed_steps,
        "{label}: every replay restores exactly one checkpoint"
    );
    assert!(
        chaotic.chaos.checkpoints_taken > 0,
        "{label}: chaos-enabled runs checkpoint every committed tick"
    );
    chaotic
}

#[test]
fn chaos_recovery_is_bit_identical_across_policies_axes_workers_and_seeds() {
    // Wide mix: an eDRAM that admits most of the six-request policy mix at
    // once (and still overflows, so migrations fire) keeps every shard of
    // every pool under test busy.
    let wide_edram = shared_prefix().len() + 30;
    let solo_edram = shared_prefix().len() + 6;
    let baseline = sharing_engine(7, 1)
        .serve(policy_mix(), ServeOptions::new())
        .expect("no chaos configured");
    // Lone session: a one-session batch leaves every other shard idle, and
    // its sabotaged step is restored and replayed on the shard it lives on —
    // one long-lived session per policy.
    let solo = |policy: CachePolicy| {
        let mut prompt = shared_prefix();
        prompt.extend([41, 42, 43]);
        vec![ServeRequest::builder(prompt)
            .decode_len(16)
            .policy(policy)
            .build()]
    };
    let solo_baselines: Vec<BatchOutcome> = CachePolicy::all()
        .into_iter()
        .map(|policy| {
            sharing_engine(7, 1)
                .serve(solo(policy), ServeOptions::new())
                .expect("no chaos configured")
        })
        .collect();
    for workers in worker_counts() {
        for seed in chaos_seeds() {
            let label = format!("wide mix, workers={workers}, chaos seed={seed}");
            let engine = sharing_engine(7, workers);
            let chaotic =
                assert_storm_recovers(&engine, policy_mix(), wide_edram, &baseline, seed, &label);
            assert!(
                chaotic.chaos.injected_panics > 0,
                "{label}: the storm must actually panic workers"
            );
            assert_eq!(
                chaotic.parallel.queue_crossings,
                2 * policy_mix().len() as u64,
                "{label}: each session crosses in with its prefill and out when taken; \
                 checkpoints, restores and replays all happen where it lives"
            );
            assert_eq!(chaotic.parallel.sessions_migrated, 0, "{label}");
            assert!(
                chaotic.tiering.demotions > 0,
                "{label}: the mix must overflow the eDRAM tier"
            );

            let mut solo_panics = 0;
            for (policy, solo_baseline) in CachePolicy::all().into_iter().zip(&solo_baselines) {
                let label = format!(
                    "lone session, policy={}, workers={workers}, chaos seed={seed}",
                    policy.name()
                );
                let engine = sharing_engine(7, workers);
                let chaotic = assert_storm_recovers(
                    &engine,
                    solo(policy),
                    solo_edram,
                    solo_baseline,
                    seed,
                    &label,
                );
                solo_panics += chaotic.chaos.injected_panics;
                assert_eq!(
                    chaotic.parallel.queue_crossings, 2,
                    "{label}: one crossing in with the prefill, one out when taken"
                );
            }
            assert!(
                solo_panics > 0,
                "workers={workers}, chaos seed={seed}: the storm must panic lone-session steps"
            );
        }
    }
}

/// One tiered storm at chaos seed 7 — worker panics, migration faults and
/// ledger blips all on — pinned to exact tiering and recovery counters, at
/// every worker count and inline.  Migration draws, blip draws and panic
/// coordinates all land in these numbers, so any reordering of the
/// coordinator's residency and recovery decisions moves them.
#[test]
fn tiered_storm_metrics_of_seed_7_are_pinned() {
    const TIERING: TieringMetrics = TieringMetrics {
        edram: TierUsageMetrics {
            peak_bytes: 422_156_696,
            settled_peak_bytes: 207_618_048,
            in_bytes: 435_997_900,
            out_bytes: 816_630_987,
        },
        dram: TierUsageMetrics {
            peak_bytes: 221_459_251,
            settled_peak_bytes: 221_459_251,
            in_bytes: 816_630_987,
            out_bytes: 435_997_900,
        },
        nvme: TierUsageMetrics {
            peak_bytes: 0,
            settled_peak_bytes: 0,
            in_bytes: 0,
            out_bytes: 0,
        },
        demotions: 4,
        promotions: 2,
        migrated_bytes: 1_252_628_887,
        // 0.05006772709375 s and 0.9125671344831998 J, bit for bit.
        migration_time_s: f64::from_bits(0x3fa9_a27a_24e7_c986),
        migration_energy_j: f64::from_bits(0x3fed_33bf_fdc0_5018),
        migration_retries: 9,
        failed_migrations: 1,
    };
    const CHAOS: ChaosMetrics = ChaosMetrics {
        injected_panics: 9,
        replayed_steps: 9,
        backoff_ticks: 9,
        ledger_blips: 3,
        checkpoints_taken: 29,
        restored_sessions: 9,
        shed_requests: 0,
        cancelled_requests: 0,
        drained_requests: 0,
        lost_requests: 0,
    };
    let chaos = ChaosConfig::default()
        .with_seed(7)
        .with_worker_panics(200)
        .with_migration_faults(400)
        .with_ledger_blips(400)
        .with_max_retries(12);
    let config = |engine: &KelleEngine| {
        SchedulerConfig::default()
            .with_tiering(tiny_tiering(engine, shared_prefix().len() + 6))
            .with_chaos(chaos)
    };
    let mut runs: Vec<(String, BatchOutcome)> = worker_counts()
        .into_iter()
        .map(|workers| {
            let engine = sharing_engine(7, workers);
            let outcome = serve_parallel(&engine, policy_mix(), config(&engine))
                .expect("the replay budget absorbs every fault");
            (format!("workers={workers}"), outcome)
        })
        .collect();
    let engine = sharing_engine(7, 1);
    let inline = engine
        .serve(
            policy_mix(),
            ServeOptions::new().with_scheduler(config(&engine)),
        )
        .expect("the replay budget absorbs every fault");
    runs.push(("inline".to_string(), inline));
    for (label, outcome) in runs {
        let tiering = outcome.tiering;
        assert_eq!(
            (
                tiering.migration_time_s.to_bits(),
                tiering.migration_energy_j.to_bits()
            ),
            (
                TIERING.migration_time_s.to_bits(),
                TIERING.migration_energy_j.to_bits()
            ),
            "{label}: migration cost bits"
        );
        assert_eq!(tiering, TIERING, "{label}: tiering metrics");
        assert_eq!(outcome.chaos, CHAOS, "{label}: chaos metrics");
    }
}

#[test]
fn injected_faults_never_leak_capacity_or_tier_residency() {
    for seed in chaos_seeds() {
        let engine = sharing_engine(11, 2);
        let config = SchedulerConfig::default()
            .with_tiering(tiny_tiering(&engine, shared_prefix().len() + 6))
            .with_chaos(storm(seed));
        let outcome = serve_parallel(&engine, policy_mix(), config)
            .expect("the replay budget absorbs every fault");
        // Conservation holds through retried and abandoned migrations:
        // whatever left a tier arrived somewhere else, and only successful
        // transfers count as migrated bytes.
        let out_total = outcome.tiering.edram.out_bytes
            + outcome.tiering.dram.out_bytes
            + outcome.tiering.nvme.out_bytes;
        let in_total = outcome.tiering.edram.in_bytes
            + outcome.tiering.dram.in_bytes
            + outcome.tiering.nvme.in_bytes;
        assert_eq!(out_total, in_total, "seed {seed}: tier conservation");
        assert_eq!(
            outcome.tiering.migrated_bytes, out_total,
            "seed {seed}: failed attempts must not count as moved bytes"
        );
    }
}

#[test]
fn deadlines_and_queue_timeouts_shed_with_partial_output() {
    let engine = KelleEngine::builder().seed(3).build();
    // Admit-one capacity: the second request waits past its queue timeout.
    let capacity = engine.kv_footprint_bytes(4);
    let config = SchedulerConfig::default().with_kv_capacity_bytes(capacity);
    let mut scheduler = BatchScheduler::with_config(&engine, config);
    scheduler.submit(
        ServeRequest::builder(vec![1, 2, 3, 4])
            .decode_len(10)
            .deadline_ticks(4)
            .build(),
    );
    scheduler.submit(
        ServeRequest::builder(vec![5, 6, 7, 8])
            .decode_len(2)
            .queue_timeout_ticks(2)
            .build(),
    );
    assert_eq!(scheduler.waiting(), 1, "the fixture must queue request 1");
    while !scheduler.is_idle() {
        scheduler.step();
    }
    assert_eq!(scheduler.ledger().live_bytes(), 0, "shedding releases KV");
    let outcome = scheduler.finish().expect("all requests resolved");
    let deadline = &outcome.outcomes[0];
    assert_eq!(deadline.shed, Some(ShedReason::DeadlineExceeded));
    assert_eq!(
        deadline.generated.len(),
        4,
        "a deadline of 4 ticks yields exactly 4 decode tokens"
    );
    // The partial stream is a prefix of the un-shed stream.
    let full = KelleEngine::builder()
        .seed(3)
        .build()
        .serve_one(&[1, 2, 3, 4], 10);
    assert_eq!(deadline.generated, full.generated[..4]);
    let timed_out = &outcome.outcomes[1];
    assert_eq!(timed_out.shed, Some(ShedReason::QueueTimeout));
    assert!(timed_out.generated.is_empty(), "never admitted, no tokens");
    assert_eq!(outcome.chaos.shed_requests, 2);
}

#[test]
fn cancel_and_drain_release_everything_after_faults() {
    for seed in chaos_seeds() {
        let engine = sharing_engine(19, 1);
        let config = SchedulerConfig::default()
            .with_tiering(tiny_tiering(&engine, shared_prefix().len() + 6))
            .with_chaos(storm(seed));
        let mut scheduler = BatchScheduler::with_config(&engine, config);
        let mut pool = WorkerPool::default();
        let requests = policy_mix();
        let total = requests.len();
        for request in requests {
            scheduler.submit_with(request, &mut pool);
        }
        // Let faults inject and recover for a couple of ticks, then cancel
        // the longest-running request (decode length 7 — still live) and
        // drain the rest.
        for _ in 0..2 {
            scheduler
                .try_step_with(&mut pool)
                .expect("the replay budget absorbs every fault");
        }
        assert!(
            scheduler.cancel_with(4, &mut pool),
            "request 4 is live and cancellable"
        );
        assert!(!scheduler.cancel_with(4, &mut pool), "cancel is idempotent");
        scheduler
            .drain_with(&mut pool)
            .expect("drain finishes in-flight work despite the storm");
        assert!(scheduler.is_draining());
        assert!(scheduler.is_idle());
        assert_eq!(scheduler.ledger().live_bytes(), 0, "seed {seed}: live KV");
        assert_eq!(
            scheduler.ledger().shared_bytes(),
            0,
            "seed {seed}: shared KV"
        );
        let tier = scheduler.tier().expect("tiering is enabled");
        for index in 0..total {
            assert_eq!(
                tier.session_tier(index),
                None,
                "seed {seed}: request {index} still tier-resident after drain"
            );
        }
        let outcome = scheduler.finish().expect("drained scheduler is idle");
        assert_eq!(outcome.outcomes.len(), total);
        assert_eq!(outcome.outcomes[4].shed, Some(ShedReason::Cancelled));
        assert_eq!(outcome.chaos.cancelled_requests, 1);
        assert_eq!(outcome.chaos.lost_requests, 0);
    }
}

#[test]
fn exhausted_replay_budget_surfaces_typed_worker_lost() {
    // Default options, inline and parallel: an unrecoverable loss is always
    // the typed error, never a panic.
    let chaos = ChaosConfig::default()
        .with_seed(1)
        .with_worker_panics(1000)
        .with_max_retries(0);
    let config = SchedulerConfig::default().with_chaos(chaos);
    let request = || vec![ServeRequest::new(vec![1, 2, 3], 4)];
    let inline = KelleEngine::builder()
        .seed(5)
        .build()
        .serve(request(), ServeOptions::new().with_scheduler(config));
    let mut errors = vec![inline.expect_err("a certain panic with no retries cannot recover")];
    for workers in worker_counts() {
        let engine = KelleEngine::builder().seed(5).workers(workers).build();
        errors.push(
            serve_parallel(&engine, request(), config)
                .expect_err("a certain panic with no retries cannot recover"),
        );
    }
    for error in errors {
        let ServeError::WorkerLost {
            request, attempts, ..
        } = error;
        assert_eq!(request, 0);
        assert_eq!(attempts, 1);
    }
}

/// The lost request behind a [`ServeError::WorkerLost`] is finalized as
/// [`ShedReason::WorkerLost`] and leaves nothing behind on the ledger or in
/// any tier — on the default one-shard pool and on every started pool.
#[test]
fn a_lost_worker_sheds_its_request_and_leaks_nothing() {
    fn drive<'e>(engine: &'e KelleEngine, pool: &mut WorkerPool<'e>, label: &str) {
        let chaos = ChaosConfig::default()
            .with_seed(1)
            .with_worker_panics(1000)
            .with_max_retries(0);
        let config = SchedulerConfig::default()
            .with_tiering(tiny_tiering(engine, 8))
            .with_chaos(chaos);
        let mut scheduler = BatchScheduler::with_config(engine, config);
        scheduler.submit_with(ServeRequest::new(vec![1, 2, 3], 4), pool);
        let error = scheduler
            .try_step_with(pool)
            .expect_err("a certain panic with no retries cannot recover");
        assert!(
            matches!(error, ServeError::WorkerLost { request: 0, .. }),
            "{label}"
        );
        assert!(
            scheduler.is_idle(),
            "{label}: the lost request was finalized"
        );
        assert_eq!(scheduler.ledger().live_bytes(), 0, "{label}: live KV");
        assert_eq!(scheduler.ledger().shared_bytes(), 0, "{label}: shared KV");
        let tier = scheduler.tier().expect("tiering is enabled");
        assert_eq!(tier.session_tier(0), None, "{label}: tier residency");
        let outcome = scheduler.finish().expect("idle after the loss");
        assert_eq!(
            outcome.outcomes[0].shed,
            Some(ShedReason::WorkerLost),
            "{label}"
        );
        assert_eq!(outcome.chaos.lost_requests, 1, "{label}");
    }
    let engine = KelleEngine::builder().seed(5).build();
    drive(&engine, &mut WorkerPool::default(), "default pool");
    for workers in worker_counts() {
        std::thread::scope(|scope| {
            let mut pool = WorkerPool::start(scope, workers);
            drive(&engine, &mut pool, &format!("workers={workers}"));
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random fleets under random fault storms and tiering, on pools
    /// narrower and wider than the fleet: every stream survives
    /// bit-identical to the fault-free run, nothing is lost, and tier
    /// traffic stays conserved.
    #[test]
    fn random_mixes_survive_random_storms_bit_identically(
        seed in 0u64..500,
        chaos_seed in 0u64..500,
        shapes in proptest::collection::vec(0usize..10_000, 2..6),
        workers_pick in 0usize..3,
        edram_tokens in 1usize..24,
        panic_rate in 1u32..400,
        blip_rate in 0u32..200,
        fault_rate in 0u32..400,
    ) {
        let requests: Vec<ServeRequest> = shapes
            .iter()
            .enumerate()
            .map(|(i, &shape)| {
                let prompt_len = 1 + shape % 12;
                let decode_len = 1 + (shape / 12) % 4;
                let policy_idx = (shape / 48) % 5;
                let prompt: Vec<usize> =
                    (0..prompt_len).map(|t| (seed as usize + i * 31 + t * 7) % 512).collect();
                ServeRequest::builder(prompt)
                    .decode_len(decode_len)
                    .policy(CachePolicy::all()[policy_idx])
                    .build()
            })
            .collect();
        let baseline = KelleEngine::builder()
            .seed(seed)
            .build()
            .serve(requests.clone(), ServeOptions::new())
            .expect("no chaos configured");

        let workers = [1usize, 2, 4][workers_pick];
        let engine = KelleEngine::builder().seed(seed).workers(workers).build();
        let chaos = ChaosConfig::default()
            .with_seed(chaos_seed)
            .with_worker_panics(panic_rate)
            .with_migration_faults(fault_rate)
            .with_ledger_blips(blip_rate)
            .with_max_retries(16);
        let config = SchedulerConfig::default()
            .with_tiering(tiny_tiering(&engine, edram_tokens))
            .with_chaos(chaos);
        let chaotic = serve_parallel(&engine, requests, config)
            .expect("a 16-replay budget absorbs any sub-40% panic rate");

        prop_assert_eq!(chaotic.chaos.lost_requests, 0);
        for (a, b) in baseline.outcomes.iter().zip(chaotic.outcomes.iter()) {
            prop_assert_eq!(&a.generated, &b.generated);
            prop_assert_eq!(a.faults, b.faults);
            prop_assert_eq!(&a.trace, &b.trace);
            prop_assert_eq!(&a.hardware, &b.hardware);
        }
        let out_total = chaotic.tiering.edram.out_bytes
            + chaotic.tiering.dram.out_bytes
            + chaotic.tiering.nvme.out_bytes;
        let in_total = chaotic.tiering.edram.in_bytes
            + chaotic.tiering.dram.in_bytes
            + chaotic.tiering.nvme.in_bytes;
        prop_assert_eq!(out_total, in_total);
        prop_assert_eq!(chaotic.tiering.migrated_bytes, out_total);
    }
}
