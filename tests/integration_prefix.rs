//! Acceptance tests of cross-session prefix KV sharing (`kelle::prefix`).
//!
//! The load-bearing guarantee: a prefix-cache hit is **observationally
//! invisible** — bit-identical token streams, probability distributions and
//! fault statistics to a cold session — for every cache policy, while the
//! matched prefix's prefill compute runs once (at publication) and its
//! ledger bytes are charged once (the shared pool).

use kelle::edram::RefreshPolicy;
use kelle::model::CacheStats;
use kelle::workloads::SharedPromptScenario;
use kelle::{
    BatchOutcome, CachePolicy, EngineConfig, KelleEngine, PrefixBatchMetrics, PrefixSharingConfig,
    ServeOptions, ServeRequest,
};
use proptest::prelude::*;

/// A deterministic prompt of `len` tokens.
fn prompt_tokens(len: usize, salt: usize) -> Vec<usize> {
    (0..len).map(|i| (i * 13 + salt * 29 + 3) % 512).collect()
}

/// A sharing engine whose default policy is `policy` — the key
/// `publish_prefix` publishes under.
fn sharing_engine_for(policy: CachePolicy) -> KelleEngine {
    KelleEngine::builder()
        .policy(policy)
        .prefix_sharing(PrefixSharingConfig::enabled())
        .build()
}

/// The shared pool's conservation law: every hit request attached its
/// matched prefix to the ledger's shared pool exactly once — as the charge
/// that opened a residency period or as a deduplicated join — at the bytes
/// admission sized it with, `min(kv(hit tokens), kv(prompt))`.
fn assert_shared_pool_conserved(
    engine: &KelleEngine,
    requests: &[ServeRequest],
    batch: &BatchOutcome,
) {
    let attached: u64 = requests
        .iter()
        .zip(&batch.outcomes)
        .filter(|(_, outcome)| outcome.prefix_hit_tokens > 0)
        .map(|(request, outcome)| {
            engine
                .kv_footprint_bytes(outcome.prefix_hit_tokens)
                .min(engine.kv_footprint_bytes(request.prompt().len()))
        })
        .sum();
    assert_eq!(
        batch.prefix.shared_bytes + batch.prefix.deduplicated_bytes,
        attached,
        "shared + deduplicated bytes must equal the bytes hit requests attached"
    );
}

/// FNV-1a over little-endian words.
fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in words.into_iter().flat_map(u32::to_le_bytes) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Everything an observer of one served prompt could compare.
#[derive(Debug, PartialEq)]
struct Observed {
    tokens: Vec<usize>,
    probs: Vec<Vec<u32>>,
    words_examined: u64,
    bits_flipped: u64,
    /// `StepRecord::cache_stats` of every decode step.
    step_stats: Vec<CacheStats>,
    /// Cache stats after the last step.
    cache: CacheStats,
}

/// Serves `prompt` on a fresh session of `engine` (honouring `policy`),
/// capturing tokens, per-step probability bits and cache stats, fault
/// counters and final cache stats, plus the session's prefix-hit tokens.
fn observe(
    engine: &KelleEngine,
    policy: CachePolicy,
    prompt: &[usize],
    decode_len: usize,
) -> (Observed, usize) {
    let request = ServeRequest::builder(prompt.to_vec())
        .policy(policy)
        .decode_len(decode_len)
        .build();
    let mut session = engine.open_session_for(&request);
    session.prefill(prompt);
    let mut tokens = Vec::new();
    let mut probs = Vec::new();
    let mut step_stats = Vec::new();
    for _ in 0..decode_len {
        let step = session.decode_one();
        tokens.push(step.token);
        probs.push(step.probs.iter().map(|p| p.to_bits()).collect());
        step_stats.push(step.record.cache_stats);
    }
    let faults = session.fault_stats();
    let observed = Observed {
        tokens,
        probs,
        words_examined: faults.words_examined,
        bits_flipped: faults.bits_flipped,
        step_stats,
        cache: session.cache_stats(),
    };
    (observed, session.prefix_hit_tokens())
}

/// Prefix-hit sessions are bit-identical to cold sessions for all five
/// policies, under the engine's default (non-trivial) 2DRP fault model:
/// tokens, probability bits, fault counters, and the cache stats of every
/// decode step and after the last one.
#[test]
fn prefix_hit_is_bit_identical_for_all_policies() {
    let prefix = prompt_tokens(16, 0);
    let mut prompt = prefix.clone();
    prompt.extend(prompt_tokens(5, 7));

    let cold_engine = KelleEngine::new(EngineConfig::default());
    for policy in CachePolicy::all() {
        let sharing = sharing_engine_for(policy);
        assert!(sharing.publish_prefix(&prefix), "{policy:?} publish");
        let (cold, cold_hit) = observe(&cold_engine, policy, &prompt, 8);
        let (hit, hit_tokens) = observe(&sharing, policy, &prompt, 8);
        assert_eq!(hit_tokens, prefix.len(), "{policy:?} must hit the prefix");
        assert_eq!(cold_hit, 0);
        assert_eq!(hit.tokens, cold.tokens, "{policy:?} token stream");
        assert_eq!(hit.probs, cold.probs, "{policy:?} probability bits");
        assert_eq!(hit.step_stats, cold.step_stats, "{policy:?} per-step stats");
        assert_eq!(hit, cold, "{policy:?}");
    }
}

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

/// Under 2DRP a prefix hit reads the replayed rows' cells as a cold serve of
/// the same prompt reads its own: a row's failing cells are keyed by the
/// fault seed and its token position, and a relabel keeps it in its cells.
/// At a 16-token budget a 24-token hit evicts during its prompt and every
/// decode step relabels rows, and the batch — served on the engine's pool
/// at every worker count — must equal a cold batch bit for bit: tokens,
/// fault counters and every step's cache stats, with each hit's probability
/// bits equal to a cold session's.  The benchmark's cold-replay check of
/// every shared-prefix round rests on this.
#[test]
fn a_faulted_prefix_hit_serves_what_a_cold_serve_serves_at_every_worker_count() {
    let prefix = prompt_tokens(24, 3);
    let requests: Vec<ServeRequest> = (0..4)
        .map(|salt| {
            let mut prompt = prefix.clone();
            prompt.extend(prompt_tokens(3 + salt, 50 + salt));
            ServeRequest::new(prompt, 12 + 4 * salt)
        })
        .collect();
    let budget = kelle::cache::CacheBudget::new(16)
        .with_recent_window(4)
        .with_sink_tokens(2);
    for policy in [CachePolicy::Aerp, CachePolicy::H2o] {
        for workers in worker_counts() {
            let build = |sharing: bool| {
                let builder = KelleEngine::builder()
                    .policy(policy)
                    .refresh_policy(RefreshPolicy::two_dimensional_default())
                    .budget(budget)
                    .seed(7)
                    .workers(workers);
                if sharing {
                    builder
                        .prefix_sharing(PrefixSharingConfig::enabled())
                        .build()
                } else {
                    builder.build()
                }
            };
            let (sharing, unshared) = (build(true), build(false));
            assert!(sharing.publish_prefix(&prefix), "{policy:?} publish");
            let serve = |engine: &KelleEngine| {
                engine
                    .serve(requests.clone(), ServeOptions::new().parallel())
                    .expect("no chaos configured")
            };
            let (hit, cold_batch) = (serve(&sharing), serve(&unshared));
            let what = format!("{policy:?} at {workers} workers");
            for (request, (hit, cold)) in requests
                .iter()
                .zip(hit.outcomes.iter().zip(&cold_batch.outcomes))
            {
                assert_eq!(hit.prefix_hit_tokens, prefix.len(), "{what}");
                assert_eq!(cold.prefix_hit_tokens, 0, "{what}");
                assert!(hit.cache.evictions > 0, "{what}: the hit evicts");
                assert!(
                    hit.faults.bits_flipped > 0,
                    "{what}: the decode reads failing cells"
                );
                assert_eq!(hit.generated, cold.generated, "{what} tokens");
                assert_eq!(hit.faults, cold.faults, "{what} fault counters");
                assert_eq!(hit.trace, cold.trace, "{what} per-step stats");
                let (hit_session, _) = observe(&sharing, policy, request.prompt(), 6);
                let (cold_session, _) = observe(&unshared, policy, request.prompt(), 6);
                assert_eq!(hit_session, cold_session, "{what} session");
            }
        }
    }
}

/// A served hit's KV splits into the replayed prefix rows and the rows it
/// inserts itself; at every step of the served trace the two parts sum to
/// exactly a cold serve's cache stats, for every policy.
#[test]
fn cache_stats_split_sums_at_every_step() {
    let prefix = prompt_tokens(12, 1);
    let mut prompt = prefix.clone();
    prompt.extend([5, 6, 7]);
    for policy in CachePolicy::all() {
        let sharing = sharing_engine_for(policy);
        assert!(sharing.publish_prefix(&prefix), "{policy:?} publish");
        let hit = sharing.serve_request(ServeRequest::new(prompt.clone(), 6));
        let cold = KelleEngine::builder()
            .policy(policy)
            .build()
            .serve_request(ServeRequest::new(prompt.clone(), 6));
        assert_eq!(hit.prefix_hit_tokens, prefix.len(), "{policy:?} hit");
        assert_eq!(cold.prefix_hit_tokens, 0);
        assert_eq!(hit.trace.steps.len(), 6);
        for (step, (hit, cold)) in hit.trace.steps.iter().zip(&cold.trace.steps).enumerate() {
            assert_eq!(
                hit.cache_stats, cold.cache_stats,
                "{policy:?} cache stats at step {step}"
            );
        }
    }
}

/// The headline acceptance: ≥ 8 sessions sharing a 256-token system prompt
/// — prefix compute once, ledger bytes once, streams bit-identical.
#[test]
fn eight_sessions_share_a_256_token_system_prompt() {
    let scenario = SharedPromptScenario::new(8, 256, 8).with_decode_len(4);
    let system = scenario.system_prompt();
    let requests: Vec<ServeRequest> = scenario
        .prompts()
        .into_iter()
        .map(|p| ServeRequest::new(p, scenario.decode_len))
        .collect();
    // Conservative refresh keeps the fault model trivial so the 256-token
    // fleet stays fast; the fault-stream equivalence is covered by the
    // small-prefix tests above.
    let build = |sharing: bool| {
        let mut builder = KelleEngine::builder()
            .policy(CachePolicy::Full)
            .refresh_policy(RefreshPolicy::Conservative);
        if sharing {
            builder = builder.prefix_sharing(PrefixSharingConfig::enabled());
        }
        builder.build()
    };

    let sharing = build(true);
    assert!(sharing.publish_prefix(&system));
    let batch = sharing
        .serve(requests.clone(), ServeOptions::new())
        .expect("no chaos configured");

    // (a) Prefill compute for the shared prefix executed once: every
    // session computed only its 8-token suffix; the store holds exactly one
    // 256-token publication.
    for outcome in &batch.outcomes {
        assert_eq!(outcome.prefix_hit_tokens, 256);
        assert_eq!(outcome.prefilled_tokens, 8);
    }
    let store = sharing.prefix_stats();
    assert_eq!(store.published, 1);
    assert_eq!(store.published_tokens, 256);
    assert_eq!(store.hits, 8);
    assert_eq!(batch.prefix.hit_requests, 8);
    assert_eq!(batch.prefix.hit_tokens, 8 * 256);
    assert_eq!(batch.stats.prefix_hit_tokens, 8 * 256);

    // (b) Ledger-resident KV bytes for the prefix charged once: the shared
    // pool holds one prefix footprint, deduplicating the other seven, and
    // the batch's peak residency shrinks by exactly those seven copies.
    let prefix_bytes = sharing.kv_footprint_bytes(256);
    let full_bytes = sharing.kv_footprint_bytes(256 + 8 + 4);
    assert_eq!(batch.prefix.shared_bytes, prefix_bytes);
    assert_eq!(batch.prefix.deduplicated_bytes, 7 * prefix_bytes);
    let expected_peak = prefix_bytes + 8 * (full_bytes - prefix_bytes);
    assert_eq!(batch.contention.peak_residency_bytes, expected_peak);

    // (c) Every session's stream is bit-identical to its cold-start run.
    let cold = build(false);
    let cold_batch = cold
        .serve(requests, ServeOptions::new())
        .expect("no chaos configured");
    assert_eq!(
        cold_batch.contention.peak_residency_bytes,
        8 * full_bytes,
        "the sharing-oblivious stack charges the prefix per session"
    );
    for (a, b) in cold_batch.outcomes.iter().zip(batch.outcomes.iter()) {
        assert_eq!(a.generated, b.generated);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized equivalence: any policy, prefix/suffix/decode lengths and
    /// seed — hit and cold sessions agree on tokens, probability bits and
    /// fault counters, and a batch mixing hits and a miss conserves the
    /// shared pool.
    #[test]
    fn prefix_hit_equivalence_holds_for_random_shapes(
        policy_index in 0usize..5,
        prefix_len in 8usize..20,
        suffix_len in 0usize..6,
        decode_len in 1usize..5,
        seed in 0u64..1000,
    ) {
        let policy = CachePolicy::all()[policy_index];
        let prefix = prompt_tokens(prefix_len, seed as usize);
        let mut prompt = prefix.clone();
        prompt.extend(prompt_tokens(suffix_len, seed as usize + 1));

        let cold_engine = KelleEngine::builder().seed(seed).build();
        let sharing = KelleEngine::builder()
            .policy(policy)
            .seed(seed)
            .prefix_sharing(PrefixSharingConfig::enabled())
            .build();
        prop_assert!(sharing.publish_prefix(&prefix));

        let (cold, _) = observe(&cold_engine, policy, &prompt, decode_len);
        let (hit, hit_tokens) = observe(&sharing, policy, &prompt, decode_len);
        prop_assert_eq!(hit_tokens, prefix.len());
        prop_assert_eq!(hit.tokens, cold.tokens);
        prop_assert_eq!(hit.probs, cold.probs);
        prop_assert_eq!((hit.words_examined, hit.bits_flipped), (cold.words_examined, cold.bits_flipped));
        prop_assert_eq!(hit.cache.evictions, cold.cache.evictions);

        let requests = vec![
            ServeRequest::new(prompt.clone(), decode_len),
            ServeRequest::new(prefix[..prefix_len / 2].to_vec(), decode_len),
            ServeRequest::new(prompt, decode_len),
        ];
        let batch = sharing
            .serve(requests.clone(), ServeOptions::new())
            .expect("no chaos configured");
        prop_assert_eq!(batch.prefix.hit_requests, 2);
        assert_shared_pool_conserved(&sharing, &requests, &batch);
    }
}

/// One 3-level hierarchy published at seed 7 under 2DRP, then six requests
/// served through `serve().parallel()` on two workers: two behind the
/// shallowest and the deepest boundary, one behind the middle one and one
/// behind nothing.  The
/// batch's prefix metrics, the store's counters and an FNV-1a of the served
/// tokens and of each request's next-token probability bits are pinned to
/// constants captured before explicit publication became the only way into
/// the store (the two FNVs re-captured when each stored AERP input row came
/// to be read once per layer, and again — 0x9deb_465a_a064_e1a6 /
/// 0xf56c_0233_ba93_a54e → 0x8aa3_b547_af62_8aab / 0xd787_3476_3bf3_ae16 —
/// when rows of the current pass came to be read clean, and the
/// probabilities once more — 0xd787_3476_3bf3_ae16 → 0x3404_babd_a67b_4ac9
/// — when a corrupted row's key and value came to be corrected for its
/// flipped words instead of recomputed, and both — 0x8aa3_b547_af62_8aab /
/// 0x3404_babd_a67b_4ac9 → 0x7f24_3994_5781_7659 / 0x6898_328a_6379_1896 —
/// when a stored row's failing cells came to be fixed for the row); the
/// shared pool must also balance.
#[test]
fn prefix_hierarchy_batch_of_seed_7_is_pinned() {
    const HIT_TOKENS: [usize; 6] = [8, 16, 24, 24, 8, 0];
    // kv(8) + kv(16) + kv(24) charged once each; kv(8) + kv(24) joined.
    const BATCH: PrefixBatchMetrics = PrefixBatchMetrics {
        hit_requests: 5,
        hit_tokens: 80,
        shared_bytes: 332_188_875,
        deduplicated_bytes: 221_459_250,
    };
    // published, published_tokens, hits, misses, hit_tokens, resident_bytes
    const STORE: [u64; 6] = [3, 48, 5, 1, 80, 49_152];
    const TOKENS_FNV1A: u64 = 0x7f24_3994_5781_7659;
    const PROBS_FNV1A: u64 = 0x6898_328a_6379_1896;

    let system = prompt_tokens(24, 5);
    let behind = |level: usize, salt: usize, decode_len: usize| {
        let mut prompt = system[..level].to_vec();
        prompt.extend(prompt_tokens(3 + salt % 3, 40 + salt));
        ServeRequest::new(prompt, decode_len)
    };
    let requests = vec![
        behind(8, 0, 5),
        behind(16, 1, 3),
        behind(24, 2, 6),
        behind(24, 3, 2),
        behind(8, 4, 4),
        ServeRequest::new(prompt_tokens(7, 60), 3),
    ];
    let engine = KelleEngine::builder()
        .prefix_sharing(PrefixSharingConfig::enabled())
        .seed(7)
        .workers(2)
        .build();
    assert_eq!(engine.publish_prefix_hierarchy(&system, &[8, 16, 24]), 3);
    let batch = engine
        .serve(requests.clone(), ServeOptions::new().parallel())
        .expect("no chaos configured");
    let stats = engine.prefix_stats();
    let store = [
        stats.published,
        stats.published_tokens,
        stats.hits,
        stats.misses,
        stats.hit_tokens,
        stats.resident_bytes,
    ];
    let hit_tokens: Vec<usize> = batch.outcomes.iter().map(|o| o.prefix_hit_tokens).collect();
    let tokens = fnv1a(
        batch
            .outcomes
            .iter()
            .flat_map(|outcome| &outcome.generated)
            .map(|&t| t as u32),
    );
    // The served outcome carries no distributions: replay each request on a
    // session of the same engine (after the store counters were read) and
    // hash its per-step probability bits.
    let mut probs = Vec::new();
    for (request, outcome) in requests.iter().zip(&batch.outcomes) {
        let mut session = engine.open_session_for(request);
        session.prefill(request.prompt());
        for &token in &outcome.generated {
            let step = session.decode_one();
            assert_eq!(step.token, token, "session and batch streams agree");
            probs.extend(step.probs.iter().map(|p| p.to_bits()));
        }
    }
    let probs = fnv1a(probs);
    assert_eq!(hit_tokens, HIT_TOKENS);
    assert_eq!(batch.prefix, BATCH);
    assert_eq!(store, STORE);
    assert_eq!(
        (tokens, probs),
        (TOKENS_FNV1A, PROBS_FNV1A),
        "tokens {tokens:#018x}, probabilities {probs:#018x}"
    );
    assert_shared_pool_conserved(&engine, &requests, &batch);
}
