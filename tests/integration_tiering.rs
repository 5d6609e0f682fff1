//! Tiered-memory acceptance suite: the eDRAM → DRAM → NVMe hierarchy
//! (`kelle::tier`) must keep token streams, per-step traces,
//! probability-bearing fault statistics and per-request hardware outcomes
//! **bit-identical** to an unlimited-eDRAM run — for all five cache
//! policies, under single-threaded and parallel serving, including forced
//! mid-stream demote/promote round-trips of active sessions and demotion of
//! a shared prefix segment while sessions reference it.
//!
//! Like the parallel suite, the CI determinism gate runs this file at
//! explicit worker counts via `KELLE_TEST_WORKERS` (comma-separated);
//! without it the suite defaults to {1, 2, 4}.

use kelle::edram::MemoryTier;
use kelle::tier::{TierConfig, TieringMetrics};
use kelle::{
    BatchOutcome, BatchScheduler, CachePolicy, KelleEngine, PrefixSharingConfig, SchedulerConfig,
    ServeOptions, ServeRequest,
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

/// Asserts the functional and hardware observables of two batches are
/// bit-identical, request by request.  Queueing metrics are *not* compared:
/// tiering admits against the eDRAM budget, so requests may queue longer
/// than in an unbounded run — by design, without touching any stream.
fn assert_streams_identical(a: &BatchOutcome, b: &BatchOutcome, label: &str) {
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

/// A tiering config whose eDRAM holds roughly `tokens` full-scale KV tokens.
fn tiny_tiering(engine: &KelleEngine, tokens: usize) -> TierConfig {
    TierConfig::with_edram_budget(engine.kv_footprint_bytes(tokens))
}

#[test]
fn tiering_is_bit_identical_for_all_policies() {
    let baseline = serve(
        &sharing_engine(7, 1),
        policy_mix(),
        SchedulerConfig::default(),
    );

    // eDRAM fits roughly one prompt: the mix overflows on chip, queues,
    // demotes and promotes — and changes nothing observable.
    let engine = sharing_engine(7, 1);
    let config =
        SchedulerConfig::default().with_tiering(tiny_tiering(&engine, shared_prefix().len() + 6));
    let tiered = serve(&engine, policy_mix(), config);

    assert_streams_identical(&baseline, &tiered, "tiered vs unlimited");
    assert_ne!(tiered.tiering, TieringMetrics::default());
    assert!(
        tiered.tiering.edram.settled_peak_bytes <= engine.kv_footprint_bytes(30),
        "settled eDRAM residency must respect the budget"
    );
    assert_eq!(
        baseline.tiering,
        TieringMetrics::default(),
        "untiered runs report all-zero tiering metrics"
    );
}

#[test]
fn parallel_tiered_serving_matches_sequential_tiered_serving() {
    let probe = sharing_engine(7, 1);
    let config =
        SchedulerConfig::default().with_tiering(tiny_tiering(&probe, shared_prefix().len() + 6));
    let sequential = serve(&probe, policy_mix(), config);
    let baseline = serve(
        &sharing_engine(7, 1),
        policy_mix(),
        SchedulerConfig::default(),
    );
    for workers in worker_counts() {
        let parallel = sharing_engine(7, workers)
            .serve(
                policy_mix(),
                ServeOptions::new().parallel().with_scheduler(config),
            )
            .expect("no chaos configured");
        // Worker-count invariance is *total*: queueing, contention, prefix
        // and tiering metrics all match the sequential tiered run exactly
        // (the tier manager lives on the coordinating thread).
        assert_streams_identical(&sequential, &parallel, &format!("workers={workers}"));
        assert_eq!(
            sequential.stats, parallel.stats,
            "workers={workers}: aggregate stats"
        );
        assert_eq!(
            sequential.contention, parallel.contention,
            "workers={workers}: contention metrics"
        );
        assert_eq!(
            sequential.prefix, parallel.prefix,
            "workers={workers}: prefix metrics"
        );
        assert_eq!(
            sequential.tiering, parallel.tiering,
            "workers={workers}: tiering metrics"
        );
        // And the streams still match the unlimited-eDRAM baseline.
        assert_streams_identical(
            &baseline,
            &parallel,
            &format!("baseline, workers={workers}"),
        );
    }
}

#[test]
fn mid_stream_demote_promote_round_trips_are_invisible() {
    // An eDRAM of ~1 token is smaller than any session: the active session
    // is force-admitted, demoted by every end-of-tick rebalance and promoted
    // back before every decode step — a full demote→promote round trip per
    // generated token, mid-stream by construction.
    let requests: Vec<ServeRequest> = (0..3)
        .map(|i| {
            ServeRequest::builder(vec![i + 1, i + 2, i + 3, i + 4])
                .decode_len(4)
                .policy(CachePolicy::all()[i % 5])
                .build()
        })
        .collect();
    let engine = KelleEngine::builder().seed(13).build();
    let baseline = serve(&engine, requests.clone(), SchedulerConfig::default());

    let tiered_engine = KelleEngine::builder().seed(13).build();
    let config = SchedulerConfig::default().with_tiering(tiny_tiering(&tiered_engine, 1));
    let tiered = serve(&tiered_engine, requests, config);

    assert_streams_identical(&baseline, &tiered, "thrashing fleet");
    // Each session demotes after every non-final decode tick and promotes
    // before every non-first one: (decode_len - 1) round trips per session.
    let round_trips = (3 * (4 - 1)) as u64;
    assert!(
        tiered.tiering.demotions >= round_trips && tiered.tiering.promotions >= round_trips,
        "every decode tick must round-trip the active session \
         (demotions={}, promotions={}, expected >= {round_trips})",
        tiered.tiering.demotions,
        tiered.tiering.promotions
    );
    assert!(tiered.tiering.migration_time_s > 0.0);
    assert!(tiered.tiering.migration_energy_j > 0.0);
}

#[test]
fn referenced_shared_segment_demotes_and_replays_consistently() {
    let engine = sharing_engine(17, 1);
    let prefix_len = shared_prefix().len();
    let segment_bytes = engine.kv_footprint_bytes(prefix_len);
    // eDRAM comfortably fits the segment plus one session's private bytes,
    // but not much more: as decode growth accumulates, the stale segment is
    // the lowest-credit resident and demotes first — while sessions still
    // reference it through the ledger's shared pool.
    let config =
        SchedulerConfig::default().with_tiering(tiny_tiering(&engine, prefix_len + 2 * 12));
    let mut scheduler = BatchScheduler::with_config(&engine, config);
    let mut requests = Vec::new();
    for i in 0..3 {
        let mut prompt = shared_prefix();
        prompt.extend([60 + i, 70 + i]);
        let request = ServeRequest::new(prompt, 8);
        requests.push(request.clone());
        scheduler.submit(request);
    }

    // The first publication gets shared-pool tag 0.
    assert!(scheduler.ledger().has_shared(0), "prefix attached on admit");
    let mut demoted_while_referenced = false;
    while !scheduler.is_idle() {
        scheduler.step();
        let tier = scheduler.tier().expect("tiering is enabled");
        if scheduler.ledger().has_shared(0)
            && tier
                .segment_tier(0)
                .is_some_and(|tier| tier != MemoryTier::Edram)
        {
            // Demoted off chip while at least one session holds it — the
            // ledger's dedup accounting is untouched by placement.
            demoted_while_referenced = true;
            assert_eq!(
                scheduler.ledger().dedup_savings_bytes(),
                2 * segment_bytes,
                "demotion must not disturb shared-pool savings"
            );
        }
    }
    assert!(
        demoted_while_referenced,
        "fixture must demote the segment while it is referenced"
    );
    let tiered = scheduler.finish().expect("batch is idle");
    assert_eq!(tiered.prefix.hit_requests, 3);
    assert_eq!(tiered.prefix.deduplicated_bytes, 2 * segment_bytes);

    // Streams match the unlimited run request-for-request.
    let baseline = serve(&sharing_engine(17, 1), requests, SchedulerConfig::default());
    assert_streams_identical(&baseline, &tiered, "segment demotion");
}

#[test]
fn store_eviction_of_a_referenced_prefix_is_copy_safe_for_budgeted_policies() {
    let prefix_a = shared_prefix();
    let prefix_b: Vec<usize> = (0..24).map(|i| (i * 11 + 3) % 512).collect();

    // Probe the store footprint of one published segment.
    let probe = sharing_engine(19, 1);
    let segment_store_bytes = probe.prefix_stats().resident_bytes;
    assert!(segment_store_bytes > 0);

    // A store that holds exactly one segment: publishing B must evict A.
    let engine = KelleEngine::builder()
        .prefix_sharing(PrefixSharingConfig::enabled().with_store_budget_bytes(segment_store_bytes))
        .seed(19)
        .build();
    assert!(engine.publish_prefix(&prefix_a));

    let mut prompt = prefix_a.clone();
    prompt.extend([91, 92]);
    let request = ServeRequest::builder(prompt.clone())
        .decode_len(6)
        .policy(CachePolicy::Aerp)
        .build();

    let mut scheduler = BatchScheduler::new(&engine);
    scheduler.submit(request.clone());
    scheduler.step();
    // Mid-stream eviction: the active session replays segment A under a
    // budgeted policy while the store drops it — the session's privatized
    // copy (copy-on-evict arenas) keeps decoding unperturbed.
    assert!(engine.publish_prefix(&prefix_b));
    assert_eq!(engine.prefix_stats().evictions, 1, "A evicted for B");
    while !scheduler.is_idle() {
        scheduler.step();
    }
    let outcome = scheduler.finish().expect("batch is idle");
    assert!(
        outcome.outcomes[0].prefix_hit_tokens > 0,
        "A was hit before its eviction"
    );

    // The decode that straddled the eviction matches an eviction-free run.
    let baseline = serve(
        &sharing_engine(19, 1),
        vec![request],
        SchedulerConfig::default(),
    );
    assert_streams_identical(&baseline, &outcome, "eviction mid-stream");

    // A later request on the evicted prefix misses cleanly — and, sharing
    // being stream-invariant, still generates the same tokens.
    let follow = serve(
        &engine,
        vec![ServeRequest::new(prompt.clone(), 3)],
        SchedulerConfig::default(),
    );
    assert_eq!(
        follow.outcomes[0].prefix_hit_tokens, 0,
        "A is gone from the store"
    );
    let solo = KelleEngine::builder()
        .seed(19)
        .build()
        .serve_one(&prompt, 3);
    assert_eq!(follow.outcomes[0].generated, solo.generated);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random fleets under random tiny eDRAM budgets: settled per-tier
    /// residency never exceeds the bounded tiers' budgets, and every stream
    /// matches the unlimited run.
    #[test]
    fn settled_residency_respects_budgets_and_streams_never_change(
        seed in 0u64..500,
        shapes in proptest::collection::vec(0usize..10_000, 2..6),
        edram_tokens in 1usize..24,
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
        let engine = KelleEngine::builder().seed(seed).build();
        let baseline = serve(&engine, requests.clone(), SchedulerConfig::default());

        let tiered_engine = KelleEngine::builder().seed(seed).build();
        let tiering = tiny_tiering(&tiered_engine, edram_tokens);
        let config = SchedulerConfig::default().with_tiering(tiering);
        let tiered = serve(&tiered_engine, requests, config);

        for (a, b) in baseline.outcomes.iter().zip(tiered.outcomes.iter()) {
            prop_assert_eq!(&a.generated, &b.generated);
            prop_assert_eq!(a.faults, b.faults);
            prop_assert_eq!(&a.trace, &b.trace);
            prop_assert_eq!(&a.hardware, &b.hardware);
        }
        prop_assert!(
            tiered.tiering.edram.settled_peak_bytes <= tiering.budgets.budget(MemoryTier::Edram)
        );
        prop_assert!(
            tiered.tiering.dram.settled_peak_bytes <= tiering.budgets.budget(MemoryTier::Dram)
        );
        // Conservation: whatever left a tier arrived somewhere else.
        let out_total = tiered.tiering.edram.out_bytes
            + tiered.tiering.dram.out_bytes
            + tiered.tiering.nvme.out_bytes;
        let in_total = tiered.tiering.edram.in_bytes
            + tiered.tiering.dram.in_bytes
            + tiered.tiering.nvme.in_bytes;
        prop_assert_eq!(out_total, in_total);
        prop_assert_eq!(tiered.tiering.migrated_bytes, out_total);
    }
}
