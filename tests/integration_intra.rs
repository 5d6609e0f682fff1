//! Intra-session parallelism acceptance suite: fanning one session's decode
//! step across the worker pool (per-head attention jobs + row-blocked
//! projections) must be **bit-identical** to sequential decode — token
//! streams, per-step probability bits and fault statistics — for every
//! worker count, all five cache policies and fault-enabled refresh
//! configurations, on both the session API and the worker pool's own
//! per-tick choice (fork inside each step for a decode batch of at most half
//! a session per worker, step sessions whole otherwise).
//!
//! The CI determinism gate runs this suite at explicit worker counts via the
//! `KELLE_TEST_WORKERS` environment variable (comma-separated, e.g.
//! `KELLE_TEST_WORKERS=1,2,4`); without it the suite defaults to {1, 2, 4}.

use kelle::edram::RefreshPolicy;
use kelle::parallel::WorkerPool;
use kelle::tier::TierConfig;
use kelle::{BatchOutcome, CachePolicy, KelleEngine, SchedulerConfig, ServeOptions, ServeRequest};
use proptest::prelude::*;

/// Worker counts under test: `KELLE_TEST_WORKERS` (the CI determinism gate
/// sets `1,2,4`) or {1, 2, 4} by default.
fn worker_counts() -> Vec<usize> {
    match std::env::var("KELLE_TEST_WORKERS") {
        Ok(raw) => {
            let counts: Vec<usize> = raw
                .split(',')
                .map(|part| {
                    part.trim()
                        .parse::<usize>()
                        .unwrap_or_else(|_| panic!("bad KELLE_TEST_WORKERS entry: {part:?}"))
                })
                .collect();
            assert!(!counts.is_empty(), "KELLE_TEST_WORKERS must list counts");
            counts
        }
        Err(_) => vec![1, 2, 4],
    }
}

/// A fault-enabled engine: a relaxed uniform refresh interval injects
/// retention faults at a rate high enough that the fixtures below actually
/// exercise the per-(layer, head) fault-RNG partitioning, per `policy`.
fn faulty_engine(policy: CachePolicy, seed: u64) -> KelleEngine {
    faulty_engine_on(policy, seed, 1)
}

/// [`faulty_engine`] with `workers` threads behind `ServeOptions::parallel`.
fn faulty_engine_on(policy: CachePolicy, seed: u64, workers: usize) -> KelleEngine {
    KelleEngine::builder()
        .policy(policy)
        .refresh_policy(RefreshPolicy::Uniform(240.0))
        .seed(seed)
        .workers(workers)
        .build()
}

/// [`KelleEngine::serve`] under `config`, inline or across the engine's workers.
fn serve(
    engine: &KelleEngine,
    requests: Vec<ServeRequest>,
    config: SchedulerConfig,
    parallel: bool,
) -> BatchOutcome {
    let options = ServeOptions::new().with_scheduler(config);
    let options = if parallel {
        options.parallel()
    } else {
        options
    };
    engine
        .serve(requests, options)
        .expect("no chaos configured")
}

/// Queue crossings of an unbounded batch on any pool: each session crosses
/// to its shard with its prefill and back when it is taken — nothing per
/// tick, whichever way the pool runs the step.
fn expected_crossings(requests: &[ServeRequest]) -> u64 {
    2 * requests.len() as u64
}

/// Asserts streams, traces, fault/cache statistics and batch metrics match.
fn assert_batches_identical(sequential: &BatchOutcome, outcome: &BatchOutcome, label: &str) {
    assert_eq!(outcome.outcomes.len(), sequential.outcomes.len(), "{label}");
    for (i, (a, b)) in sequential
        .outcomes
        .iter()
        .zip(outcome.outcomes.iter())
        .enumerate()
    {
        assert_eq!(a.generated, b.generated, "{label}: stream of request {i}");
        assert_eq!(a.trace, b.trace, "{label}: trace of request {i}");
        assert_eq!(a.faults, b.faults, "{label}: fault stats of request {i}");
        assert_eq!(a.cache, b.cache, "{label}: cache stats of request {i}");
    }
    assert_eq!(outcome.stats, sequential.stats, "{label}: aggregate stats");
    assert_eq!(
        outcome.contention, sequential.contention,
        "{label}: contention metrics"
    );
}

fn prompt(seed: usize) -> Vec<usize> {
    (0..20).map(|i| (i * 13 + seed * 29 + 3) % 512).collect()
}

/// Decodes `steps` tokens on one session, returning the token stream and
/// every step's probability bits.  With `workers` set, decoding fans out on
/// the intra axis through a [`WorkerPool`] runner.
fn decode_session(
    engine: &KelleEngine,
    steps: usize,
    workers: Option<usize>,
) -> (Vec<usize>, Vec<u32>, kelle::model::FaultStats) {
    let mut session = engine.open_session();
    session.prefill(&prompt(1));
    let mut tokens = Vec::with_capacity(steps);
    let mut prob_bits = Vec::new();
    match workers {
        None => {
            for _ in 0..steps {
                let step = session.decode_one();
                tokens.push(step.token);
                prob_bits.extend(step.probs.iter().map(|p| p.to_bits()));
            }
        }
        Some(count) => std::thread::scope(|scope| {
            let pool = WorkerPool::start(scope, count);
            let runner = pool.runner();
            for _ in 0..steps {
                let step = session.decode_one_with(&runner);
                tokens.push(step.token);
                prob_bits.extend(step.probs.iter().map(|p| p.to_bits()));
            }
        }),
    }
    let faults = session.fault_stats();
    (tokens, prob_bits, faults)
}

#[test]
fn intra_decode_is_bit_identical_to_sequential_for_all_policies_with_faults() {
    let steps = 8;
    let mut total_flips = 0u64;
    for policy in CachePolicy::all() {
        let (seq_tokens, seq_bits, seq_faults) =
            decode_session(&faulty_engine(policy, 7), steps, None);
        total_flips += seq_faults.bits_flipped;
        for workers in worker_counts() {
            let (tokens, bits, faults) =
                decode_session(&faulty_engine(policy, 7), steps, Some(workers));
            assert_eq!(
                tokens,
                seq_tokens,
                "token stream diverged: policy={}, workers={workers}",
                policy.name()
            );
            assert_eq!(
                bits,
                seq_bits,
                "probability bits diverged: policy={}, workers={workers}",
                policy.name()
            );
            assert_eq!(
                faults,
                seq_faults,
                "fault stats diverged: policy={}, workers={workers}",
                policy.name()
            );
        }
    }
    assert!(
        total_flips > 0,
        "the relaxed-refresh fixture must actually inject faults"
    );
}

/// One request per cache policy with staggered decode lengths, so the batch
/// narrows as requests complete (the pool flips from session- to
/// intra-parallel mid-run).
fn policy_mix() -> Vec<ServeRequest> {
    CachePolicy::all()
        .into_iter()
        .enumerate()
        .map(|(i, policy)| {
            ServeRequest::builder(prompt(i))
                .decode_len(3 + 2 * i)
                .policy(policy)
                .build()
        })
        .collect()
}

#[test]
fn every_axis_serves_batches_bit_identically_to_sequential() {
    let sequential = serve(
        &faulty_engine(CachePolicy::Aerp, 11),
        policy_mix(),
        SchedulerConfig::default(),
        false,
    );
    for workers in worker_counts() {
        let engine = faulty_engine_on(CachePolicy::Aerp, 11, workers);
        let outcome = serve(&engine, policy_mix(), SchedulerConfig::default(), true);
        let label = format!("workers={workers}");
        assert_batches_identical(&sequential, &outcome, &label);
        // The batch narrows from whole-session steps to forked ones mid-run
        // without a session ever moving.
        assert_eq!(
            outcome.parallel.queue_crossings,
            expected_crossings(&policy_mix()),
            "{label}: crossings"
        );
        assert_eq!(outcome.parallel.sessions_migrated, 0, "{label}");
    }
}

/// On a 4-worker pool a 1- or 2-session batch forks inside each step and a
/// 5-session batch steps its sessions whole — bit-identically to inline
/// serving, under faults, for all five policies, and at the same queue
/// traffic: the sessions stay on their shards either way.  (Which widths
/// fork is pinned next to the rule, in `kelle::parallel`'s unit tests;
/// per-step probability bits of the same pool runner by
/// `intra_decode_is_bit_identical_…` above.)
#[test]
fn batch_width_picks_the_axis_on_a_four_worker_pool() {
    let decode_len = 6;
    for policy in CachePolicy::all() {
        for width in [1usize, 2, 5] {
            let requests: Vec<ServeRequest> = (0..width)
                .map(|i| ServeRequest::new(prompt(i), decode_len))
                .collect();
            let sequential = serve(
                &faulty_engine(policy, 11),
                requests.clone(),
                SchedulerConfig::default(),
                false,
            );
            let outcome = serve(
                &faulty_engine_on(policy, 11, 4),
                requests.clone(),
                SchedulerConfig::default(),
                true,
            );
            let label = format!("policy={}, width={width}", policy.name());
            assert_batches_identical(&sequential, &outcome, &label);
            assert_eq!(
                outcome.parallel.queue_crossings,
                expected_crossings(&requests),
                "{label}: no decode tick crosses the queue"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random request mixes served with tiering enabled are bit-identical to
    /// sequential serving however the pool runs the step: narrow pools step
    /// wide mixes whole, the 10-worker pool is at least twice as wide as any
    /// mix and forks inside every step — both compose with the
    /// memory-hierarchy overlay.
    #[test]
    fn random_mixes_are_axis_and_worker_invariant_with_tiering(
        seed in 0u64..500,
        shapes in proptest::collection::vec(0usize..10_000, 2..6),
        capacity_tokens in 8usize..40,
    ) {
        // Each sampled integer encodes one request's shape: prompt length in
        // 1..=12, decode length in 1..=4, policy index in 0..5.
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
        let engine = KelleEngine::builder().seed(seed).build();
        let config = SchedulerConfig::default().with_tiering(TierConfig::with_edram_budget(
            engine.kv_footprint_bytes(capacity_tokens),
        ));
        let sequential = serve(&engine, requests.clone(), config, false);
        for workers in [2, 3, 10] {
            let engine = KelleEngine::builder().seed(seed).workers(workers).build();
            let parallel = serve(&engine, requests.clone(), config, true);
            prop_assert_eq!(sequential.outcomes.len(), parallel.outcomes.len());
            for (a, b) in sequential.outcomes.iter().zip(parallel.outcomes.iter()) {
                prop_assert_eq!(&a.generated, &b.generated);
                prop_assert_eq!(a.faults, b.faults);
                prop_assert_eq!(&a.trace, &b.trace);
            }
            prop_assert_eq!(&sequential.contention, &parallel.contention);
            prop_assert_eq!(&sequential.tiering, &parallel.tiering);
            prop_assert_eq!(sequential.stats, parallel.stats);
        }
    }
}
