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

/// Serves `prompt` on a fresh session of `engine` (honouring `policy`),
/// capturing everything an observer could compare: tokens, per-step
/// probability bits, fault counters and final cache stats.
fn observe(
    engine: &KelleEngine,
    policy: CachePolicy,
    prompt: &[usize],
    decode_len: usize,
) -> (Vec<usize>, Vec<Vec<u32>>, u64, u64, CacheStats, usize) {
    let request = ServeRequest::builder(prompt.to_vec())
        .policy(policy)
        .decode_len(decode_len)
        .build();
    let mut session = engine.open_session_for(&request);
    session.prefill(prompt);
    let mut tokens = Vec::new();
    let mut probs = Vec::new();
    for _ in 0..decode_len {
        let step = session.decode_one();
        tokens.push(step.token);
        probs.push(step.probs.iter().map(|p| p.to_bits()).collect());
    }
    let faults = session.fault_stats();
    (
        tokens,
        probs,
        faults.words_examined,
        faults.bits_flipped,
        session.cache_stats(),
        session.prefix_hit_tokens(),
    )
}

/// Prefix-hit sessions are bit-identical to cold sessions for all five
/// policies, under the engine's default (non-trivial) 2DRP fault model.
#[test]
fn prefix_hit_is_bit_identical_for_all_policies() {
    let prefix = prompt_tokens(16, 0);
    let mut prompt = prefix.clone();
    prompt.extend(prompt_tokens(5, 7));

    let cold_engine = KelleEngine::new(EngineConfig::default());
    for policy in CachePolicy::all() {
        let sharing = sharing_engine_for(policy);
        assert!(sharing.publish_prefix(&prefix), "{policy:?} publish");
        let cold = observe(&cold_engine, policy, &prompt, 8);
        let hit = observe(&sharing, policy, &prompt, 8);
        assert_eq!(hit.5, prefix.len(), "{policy:?} must hit the prefix");
        assert_eq!(cold.5, 0);
        assert_eq!(hit.0, cold.0, "{policy:?} token stream");
        assert_eq!(hit.1, cold.1, "{policy:?} probability bits");
        assert_eq!(hit.2, cold.2, "{policy:?} fault words examined");
        assert_eq!(hit.3, cold.3, "{policy:?} fault bits flipped");
        assert_eq!(
            hit.4.evictions, cold.4.evictions,
            "{policy:?} eviction count"
        );
        assert_eq!(hit.4.bytes_fp16, cold.4.bytes_fp16, "{policy:?} footprint");
        // The unit-of-account invariant holds on both sides.
        assert_eq!(hit.4.bytes_fp16, hit.4.shared_bytes + hit.4.private_bytes);
        assert_eq!(
            cold.4.bytes_fp16,
            cold.4.shared_bytes + cold.4.private_bytes
        );
        assert_eq!(cold.4.shared_bytes, 0, "cold sessions hold no shared bytes");
    }
}

/// A mid-stream eviction reaching into the shared region privatizes the
/// arenas (copy-on-evict) — and the stream still matches a cold session.
#[test]
fn mid_stream_eviction_forces_copy_on_evict_privatization() {
    use kelle::cache::CacheBudget;
    let prefix = prompt_tokens(16, 3);
    let mut prompt = prefix.clone();
    prompt.extend([7, 11]);
    // Budget 20 with 2 sinks: prefill holds 18 entries (shared prefix still
    // intact), decode crosses 20 a few steps in and evicts the oldest
    // non-sink token — which lives in the shared region.
    let budget = CacheBudget::new(20).with_sink_tokens(2);
    let build = |sharing: bool| {
        let mut builder = KelleEngine::builder()
            .policy(CachePolicy::StreamingLlm)
            .budget(budget);
        if sharing {
            builder = builder.prefix_sharing(PrefixSharingConfig::enabled());
        }
        builder.build()
    };

    let sharing = build(true);
    assert!(sharing.publish_prefix(&prefix));
    let mut session = sharing.open_session();
    session.prefill(&prompt);
    assert_eq!(session.prefix_hit_tokens(), prefix.len());
    let after_prefill = session.cache_stats();
    assert!(
        after_prefill.shared_bytes > 0,
        "prefix is adopted zero-copy through prefill"
    );
    assert_eq!(
        after_prefill.bytes_fp16,
        after_prefill.shared_bytes + after_prefill.private_bytes
    );

    let mut generated = Vec::new();
    for _ in 0..8 {
        generated.push(session.decode_one().token);
    }
    let after_decode = session.cache_stats();
    assert!(
        after_decode.evictions > 0,
        "budget forces mid-stream evictions"
    );
    assert_eq!(
        after_decode.shared_bytes, 0,
        "eviction into the shared region privatized the arenas"
    );
    assert_eq!(after_decode.bytes_fp16, after_decode.private_bytes);

    // The privatization is invisible to the stream.
    let cold = build(false);
    let mut cold_session = cold.open_session();
    cold_session.prefill(&prompt);
    let mut cold_generated = Vec::new();
    for _ in 0..8 {
        cold_generated.push(cold_session.decode_one().token);
    }
    assert_eq!(generated, cold_generated);
    assert_eq!(
        session.fault_stats().bits_flipped,
        cold_session.fault_stats().bits_flipped
    );
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
    // Surrogate-level zero-copy under the full policy: each session's cache
    // reports the segment's bytes as shared, not private.
    for outcome in &batch.outcomes {
        assert!(outcome.cache.shared_bytes > 0);
        assert_eq!(
            outcome.cache.bytes_fp16,
            outcome.cache.shared_bytes + outcome.cache.private_bytes
        );
    }
}

/// `CacheStats::bytes_fp16 == shared_bytes + private_bytes` holds at every
/// decode step of every policy, shared or cold (the split-regression
/// satellite).
#[test]
fn cache_stats_split_sums_at_every_step() {
    let prefix = prompt_tokens(12, 1);
    let mut prompt = prefix.clone();
    prompt.extend([5, 6, 7]);
    for policy in CachePolicy::all() {
        let engine = sharing_engine_for(policy);
        assert!(engine.publish_prefix(&prefix), "{policy:?} publish");
        let outcome = engine.serve_request(ServeRequest::new(prompt.clone(), 6));
        assert_eq!(outcome.prefix_hit_tokens, prefix.len(), "{policy:?} hit");
        for step in &outcome.trace.steps {
            let stats = &step.cache_stats;
            assert_eq!(
                stats.bytes_fp16,
                stats.shared_bytes + stats.private_bytes,
                "{policy:?} split must sum at every step"
            );
        }
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

        let cold = observe(&cold_engine, policy, &prompt, decode_len);
        let hit = observe(&sharing, policy, &prompt, decode_len);
        prop_assert_eq!(hit.5, prefix.len());
        prop_assert_eq!(hit.0, cold.0);
        prop_assert_eq!(hit.1, cold.1);
        prop_assert_eq!((hit.2, hit.3), (cold.2, cold.3));
        prop_assert_eq!(hit.4.evictions, cold.4.evictions);

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
/// the store; the shared pool must also balance.
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
    const TOKENS_FNV1A: u64 = 0x8639_a802_8614_a30f;
    const PROBS_FNV1A: u64 = 0x8ad9_971e_ce3f_cb5d;

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
