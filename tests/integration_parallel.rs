//! Parallel-equivalence acceptance suite: the threaded serving front-end
//! (`kelle::parallel`) must be **bit-identical** to the single-threaded
//! scheduler — token streams, per-step traces, probability-bearing fault
//! statistics and every `BatchOutcome` metric — for every worker count, all
//! five cache policies, prefix-sharing hits, contention-limited admission,
//! retention faults, tiering and pools wider than their batch.
//!
//! The CI determinism gate runs this suite at explicit worker counts via the
//! `KELLE_TEST_WORKERS` environment variable (comma-separated, e.g.
//! `KELLE_TEST_WORKERS=1,2,4`); without it the suite defaults to {1, 2, 4}.

use kelle::edram::RefreshPolicy;
use kelle::tier::TierConfig;
use kelle::{
    AdmissionPolicy, BatchOutcome, CachePolicy, KelleEngine, PrefixSharingConfig, SchedulerConfig,
    ServeOptions, ServeRequest,
};
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

/// Asserts two batch outcomes are bit-identical in every observable.
fn assert_outcomes_identical(a: &BatchOutcome, b: &BatchOutcome, label: &str) {
    assert_eq!(a.outcomes.len(), b.outcomes.len(), "{label}: request count");
    for (i, (x, y)) in a.outcomes.iter().zip(b.outcomes.iter()).enumerate() {
        assert_eq!(x.generated, y.generated, "{label}: stream of request {i}");
        assert_eq!(x.trace, y.trace, "{label}: trace of request {i}");
        assert_eq!(x.cache, y.cache, "{label}: cache stats of request {i}");
        assert_eq!(x.faults, y.faults, "{label}: fault stats of request {i}");
        assert_eq!(x.hardware, y.hardware, "{label}: hardware of request {i}");
        assert_eq!(
            (x.prefilled_tokens, x.prefix_hit_tokens),
            (y.prefilled_tokens, y.prefix_hit_tokens),
            "{label}: prefill accounting of request {i}"
        );
    }
    assert_eq!(a.stats, b.stats, "{label}: aggregate stats");
    assert_eq!(a.contention, b.contention, "{label}: contention metrics");
    assert_eq!(a.prefix, b.prefix, "{label}: prefix metrics");
    assert_eq!(a.tiering, b.tiering, "{label}: tier metrics");
    assert_eq!(a.parallel, b.parallel, "{label}: pool traffic");
}

fn shared_prefix() -> Vec<usize> {
    (0..24).map(|i| (i * 7 + 5) % 512).collect()
}

/// One request per cache policy (plus a seed-override straggler), most of
/// them riding the shared prefix, with decode lengths that stagger
/// completions across ticks.
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
    // A non-prefix request with a seed override, so admission mixes hit and
    // miss footprints.
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

/// [`KelleEngine::serve`] under `config`, fanned out across the engine's workers.
fn serve_parallel(
    engine: &KelleEngine,
    requests: Vec<ServeRequest>,
    config: SchedulerConfig,
) -> BatchOutcome {
    engine
        .serve(
            requests,
            ServeOptions::new().parallel().with_scheduler(config),
        )
        .expect("no chaos configured")
}

#[test]
fn parallel_matches_sequential_for_all_policies_with_prefix_hits() {
    let sequential_engine = sharing_engine(7, 1);
    let sequential = serve(&sequential_engine, policy_mix(), SchedulerConfig::default());
    for workers in worker_counts() {
        let engine = sharing_engine(7, workers);
        let parallel = serve_parallel(&engine, policy_mix(), SchedulerConfig::default());
        assert_outcomes_identical(&sequential, &parallel, &format!("workers={workers}"));
        // The prefix store saw the same traffic (lookups, hits, hit tokens).
        assert_eq!(engine.prefix_stats(), sequential_engine.prefix_stats());
    }
}

#[test]
fn parallel_matches_sequential_under_contention_for_every_admission_policy() {
    // Capacity fits roughly two prompts: requests queue, overtake (under
    // shortest-prompt-first / capacity-fit) and back-fill across ticks.
    let probe = sharing_engine(7, 1);
    let capacity = probe.kv_footprint_bytes(2 * (shared_prefix().len() + 3));
    for admission in AdmissionPolicy::all() {
        let config = SchedulerConfig::default()
            .with_kv_capacity_bytes(capacity)
            .with_admission(admission);
        let sequential = serve(&sharing_engine(7, 1), policy_mix(), config);
        assert!(
            sequential.contention.total_queue_ticks > 0,
            "the fixture must actually contend ({})",
            admission.name()
        );
        for workers in worker_counts() {
            let parallel = serve_parallel(&sharing_engine(7, workers), policy_mix(), config);
            assert_outcomes_identical(
                &sequential,
                &parallel,
                &format!("admission={}, workers={workers}", admission.name()),
            );
        }
    }
}

#[test]
fn parallel_streaming_preserves_token_order_and_engine_stats() {
    let mut sequential_tokens = Vec::new();
    let sequential_engine = sharing_engine(11, 1);
    let mut sink = |request: usize, token: usize| sequential_tokens.push((request, token));
    sequential_engine
        .serve(policy_mix(), ServeOptions::new().streaming(&mut sink))
        .expect("no chaos configured");
    for workers in worker_counts() {
        let engine = sharing_engine(11, workers);
        let mut parallel_tokens = Vec::new();
        let mut sink = |request: usize, token: usize| parallel_tokens.push((request, token));
        engine
            .serve(
                policy_mix(),
                ServeOptions::new().parallel().streaming(&mut sink),
            )
            .expect("no chaos configured");
        assert_eq!(
            sequential_tokens, parallel_tokens,
            "streaming order must match at workers={workers}"
        );
        // Lifetime engine statistics fold in the same order too.
        assert_eq!(engine.stats(), sequential_engine.stats());
    }
}

/// A pool wider than its batch (1 or 2 sessions on 4 workers: idle shards)
/// and one narrower (5 sessions: shard 0 holds requests 0 and 4) both serve
/// bit-identically to inline, under retention faults, for all five policies,
/// and at the same queue traffic: in with the prefill, out when taken,
/// nothing per tick.
#[test]
fn four_worker_pool_matches_inline_at_widths_1_2_5_under_faults() {
    // A relaxed uniform refresh interval injects faults at a rate that
    // exercises the per-(layer, head) cell reads.
    let faulty_engine = |policy: CachePolicy, workers: usize| {
        KelleEngine::builder()
            .policy(policy)
            .refresh_policy(RefreshPolicy::Uniform(240.0))
            .seed(11)
            .workers(workers)
            .build()
    };
    let prompt =
        |seed: usize| -> Vec<usize> { (0..20).map(|i| (i * 13 + seed * 29 + 3) % 512).collect() };
    let mut total_flips = 0u64;
    for policy in CachePolicy::all() {
        for width in [1usize, 2, 5] {
            let requests: Vec<ServeRequest> = (0..width)
                .map(|i| ServeRequest::new(prompt(i), 6))
                .collect();
            let sequential = serve(
                &faulty_engine(policy, 1),
                requests.clone(),
                SchedulerConfig::default(),
            );
            let parallel = serve_parallel(
                &faulty_engine(policy, 4),
                requests,
                SchedulerConfig::default(),
            );
            let label = format!("policy={}, width={width}", policy.name());
            assert_outcomes_identical(&sequential, &parallel, &label);
            assert_eq!(
                parallel.parallel.queue_crossings,
                2 * width as u64,
                "{label}: no decode tick crosses the queue"
            );
            assert_eq!(parallel.parallel.sessions_migrated, 0, "{label}");
            total_flips += sequential
                .outcomes
                .iter()
                .map(|outcome| outcome.faults.bits_flipped)
                .sum::<u64>();
        }
    }
    assert!(
        total_flips > 0,
        "the relaxed-refresh fixture must actually inject faults"
    );
}

/// The 8-token prefix a random mix's engines publish.
fn mix_prefix(seed: u64) -> Vec<usize> {
    (0..8)
        .map(|t| (seed as usize * 3 + t * 11 + 1) % 512)
        .collect()
}

/// Decodes each sampled integer into one request's shape: prompt length in
/// 1..=12, decode length in 1..=4, policy index in 0..5, and one of three
/// prefix cases — no [`mix_prefix`], the prefix under that policy (a hit
/// only for the engine's default, AERP), or the prefix under the engine's
/// default policy (always a hit).
fn requests_from_shapes(seed: u64, shapes: &[usize]) -> Vec<ServeRequest> {
    shapes
        .iter()
        .enumerate()
        .map(|(i, &shape)| {
            let prompt_len = 1 + shape % 12;
            let decode_len = 1 + (shape / 12) % 4;
            let policy_idx = (shape / 48) % 5;
            let prefix_case = (shape / 240) % 3;
            let mut prompt = if prefix_case == 0 {
                Vec::new()
            } else {
                mix_prefix(seed)
            };
            prompt.extend((0..prompt_len).map(|t| (seed as usize + i * 31 + t * 7) % 512));
            let builder = ServeRequest::builder(prompt).decode_len(decode_len);
            if prefix_case == 2 {
                builder.build()
            } else {
                builder.policy(CachePolicy::all()[policy_idx]).build()
            }
        })
        .collect()
}

/// A sharing engine with [`mix_prefix`] published.
fn mix_engine(seed: u64, workers: usize) -> KelleEngine {
    let engine = KelleEngine::builder()
        .prefix_sharing(PrefixSharingConfig::enabled())
        .seed(seed)
        .workers(workers)
        .build();
    assert!(engine.publish_prefix(&mix_prefix(seed)));
    engine
}

/// Serves the mix `shapes` encodes inline and on each pool of `workers`
/// threads under `config`; every pool must match inline bit for bit, and
/// the shared pool must hold exactly what the hit requests attached.
fn assert_mix_matches_inline(
    seed: u64,
    shapes: &[usize],
    config: SchedulerConfig,
    workers: &[usize],
) {
    let requests = requests_from_shapes(seed, shapes);
    let engine = mix_engine(seed, 1);
    let sequential = serve(&engine, requests.clone(), config);
    let attached: u64 = requests
        .iter()
        .zip(&sequential.outcomes)
        .filter(|(_, outcome)| outcome.prefix_hit_tokens > 0)
        .map(|(request, outcome)| {
            engine
                .kv_footprint_bytes(outcome.prefix_hit_tokens)
                .min(engine.kv_footprint_bytes(request.prompt().len()))
        })
        .sum();
    assert_eq!(
        sequential.prefix.shared_bytes + sequential.prefix.deduplicated_bytes,
        attached,
        "shared + deduplicated bytes must equal the bytes hit requests attached"
    );
    for &workers in workers {
        let parallel = serve_parallel(&mix_engine(seed, workers), requests.clone(), config);
        assert_outcomes_identical(&sequential, &parallel, &format!("workers={workers}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random request mixes (policy, seed, prompt, decode length, capacity
    /// share, prefix hit or miss) serve bit-identically through the worker
    /// pool and conserve the shared pool.
    #[test]
    fn random_mixes_are_worker_count_invariant(
        seed in 0u64..500,
        shapes in proptest::collection::vec(0usize..10_000, 2..6),
        capacity_tokens in 4usize..40,
    ) {
        let engine = KelleEngine::builder().seed(seed).build();
        let config = SchedulerConfig::default()
            .with_kv_capacity_bytes(engine.kv_footprint_bytes(capacity_tokens));
        assert_mix_matches_inline(seed, &shapes, config, &[2, 3]);
    }

    /// Random request mixes served with tiering enabled are bit-identical to
    /// inline serving on pools narrower than the mix (2, 3 workers) and on a
    /// 10-worker pool at least twice as wide as any mix — idle shards and
    /// sparse `index % workers` residency compose with the memory-hierarchy
    /// overlay.
    #[test]
    fn tiered_random_mixes_match_inline_on_2_3_and_10_workers(
        seed in 0u64..500,
        shapes in proptest::collection::vec(0usize..10_000, 2..6),
        capacity_tokens in 8usize..40,
    ) {
        let engine = KelleEngine::builder().seed(seed).build();
        let config = SchedulerConfig::default().with_tiering(TierConfig::with_edram_budget(
            engine.kv_footprint_bytes(capacity_tokens),
        ));
        assert_mix_matches_inline(seed, &shapes, config, &[2, 3, 10]);
    }
}
