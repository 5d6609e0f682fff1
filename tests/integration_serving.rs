//! Integration tests for the session-oriented serving API: multi-turn KV
//! reuse, the policy registry, and the continuous-batching scheduler.

use kelle::accuracy::Method;
use kelle::cache::CacheBudget;
use kelle::edram::{RefreshPolicy, RetentionModel};
use kelle::model::fault::{CellMap, FaultInjector, FaultStats, TokenGroup};
use kelle::model::generation::{run_with, GenerationConfig};
use kelle::{
    fault_injector_for_policy, AdmissionPolicy, BatchOutcome, CachePolicy, EngineStats,
    KelleEngine, SchedulerConfig, ServeOptions, ServeRequest,
};

fn engine_with_policy(policy: CachePolicy) -> KelleEngine {
    KelleEngine::builder().policy(policy).seed(7).build()
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

/// A session serving two chained turns must produce the same token stream as
/// one request whose prompt is the session's full context at the start of the
/// second decode — while pre-filling only the second turn's new tokens.
///
/// Exact stream equality holds for the non-evicting policy: the KV state an
/// evicting policy carries depends on when prefill pruning ran, which is the
/// semantic difference sessions introduce on purpose.  It also needs a
/// refresh that flips no bit: a session's turn-1 rows sat in eDRAM before
/// turn 2, so turn 2's prefill reads them through their cells, while a
/// one-shot prompt computes them in its own pass and reads them clean.
/// Under 2DRP that difference is what is asserted.
#[test]
fn session_turns_match_one_shot_serving() {
    let turn1: Vec<usize> = vec![5, 17, 99, 23, 4, 87, 15, 3];
    let turn2: Vec<usize> = vec![44, 12, 7, 7, 201, 16];
    let decode1 = 6;
    let decode2 = 9;
    let engine = |refresh: RefreshPolicy| {
        KelleEngine::builder()
            .policy(CachePolicy::Full)
            .refresh_policy(refresh)
            .seed(7)
            .build()
    };

    let session_engine = engine(RefreshPolicy::Conservative);
    let mut session = session_engine.open_session();
    let first = session.turn(&turn1, decode1);
    assert_eq!(first.generated.len(), decode1);
    assert_eq!(first.prefilled_tokens, turn1.len());

    // The one-shot prompt: everything the session had processed when the
    // second decode began (turn 1's prompt, its decode-time input chain, and
    // turn 2's new tokens).
    let mut one_shot_prompt = session.context().to_vec();
    one_shot_prompt.extend_from_slice(&turn2);

    let second = session.turn(&turn2, decode2);
    assert_eq!(
        second.prefilled_tokens,
        turn2.len(),
        "session must pre-fill only the new turn"
    );
    assert_eq!(
        second.context_len,
        turn1.len() + decode1 + turn2.len() + decode2
    );

    let one_shot_engine = engine(RefreshPolicy::Conservative);
    let one_shot = one_shot_engine.serve_one(&one_shot_prompt, decode2);
    assert_eq!(
        second.generated, one_shot.generated,
        "chained turns and one-shot serving must emit the same tokens"
    );

    let session_engine = engine(RefreshPolicy::two_dimensional_default());
    let mut session = session_engine.open_session();
    session.turn(&turn1, decode1);
    let before = session.fault_stats().words_examined;
    session.prefill(&turn2);
    assert!(
        session.fault_stats().words_examined > before,
        "turn 2's prefill reads turn 1's rows through their cells"
    );
    let one_shot_engine = engine(RefreshPolicy::two_dimensional_default());
    let mut one_shot = one_shot_engine.open_session();
    one_shot.prefill(&one_shot_prompt);
    assert_eq!(
        one_shot.fault_stats(),
        FaultStats::default(),
        "a one-shot prompt reads its own rows clean"
    );
}

/// The per-step trace proves the second turn performed prefill work only for
/// its own tokens: decode positions continue from the existing context
/// instead of restarting, and the session's cumulative prefill counter grows
/// by exactly the new tokens.
#[test]
fn session_reuses_cache_instead_of_reprefilling() {
    let engine = engine_with_policy(CachePolicy::Aerp);
    let mut session = engine.open_session();

    let first = session.turn(&[1, 2, 3, 4, 5, 6, 7, 8], 4);
    assert_eq!(session.prefilled_tokens(), 8);
    assert_eq!(first.trace.steps[0].position, 8);

    let second = session.turn(&[9, 10], 4);
    assert_eq!(second.prefilled_tokens, 2);
    assert_eq!(
        session.prefilled_tokens(),
        10,
        "only 2 more tokens were pre-filled"
    );
    // Decode resumes right after the accumulated context (8 + 4 decodes + 2).
    assert_eq!(second.trace.steps[0].position, 14);
    // The hardware model was charged for a 2-token prefill, not a 14-token
    // one: strictly less compute energy.  (Latency is not compared — tiny
    // incremental prefills run at worse array utilization, and both turns
    // are floored by weight streaming anyway.)
    assert!(second.hardware.prefill.energy.rsa_j < first.hardware.prefill.energy.rsa_j);
    // ...but the decode phase still pays for attending over the full 14-token
    // context: it costs exactly what a one-shot request with the same total
    // context and decode length reports.
    let one_shot = engine_with_policy(CachePolicy::Aerp).serve_one(&(0..14).collect::<Vec<_>>(), 4);
    let delta =
        (second.hardware.decode.energy.total_j() - one_shot.hardware.decode.energy.total_j()).abs();
    assert!(delta < 1e-9, "decode-phase energy differs by {delta}");
}

/// Serving the same request through a session must be deterministic for a
/// fixed seed, including across engine instances.
#[test]
fn sessions_are_deterministic_per_seed() {
    let run = || {
        let engine = engine_with_policy(CachePolicy::Aerp);
        let mut session = engine.open_session();
        let mut tokens = session.turn(&[9, 8, 7, 6, 5], 6).generated;
        tokens.extend(session.turn(&[4, 3], 6).generated);
        tokens
    };
    assert_eq!(run(), run());
}

/// The policy registry is in one-to-one correspondence with the accuracy
/// experiments' `Method` catalogue, and builds a backend whose name matches.
#[test]
fn policy_registry_matches_method_catalogue() {
    let methods = Method::all();
    let policies = CachePolicy::all();
    assert_eq!(methods.len(), policies.len());
    for (method, policy) in methods.into_iter().zip(policies) {
        assert_eq!(method.policy(), policy);
        assert_eq!(Method::from_policy(policy), method);
        let backend = policy.build(CacheBudget::new(8), 4);
        assert_eq!(backend.name(), policy.name());
    }
}

/// Every active request makes progress on every scheduler step (round-robin
/// fairness), and requests finish exactly when their decode budget is spent.
#[test]
fn batch_scheduler_is_fair() {
    let engine = engine_with_policy(CachePolicy::Aerp);
    let mut scheduler = kelle::BatchScheduler::new(&engine);
    let decode_lens = [3usize, 5, 4, 6];
    for (i, &decode_len) in decode_lens.iter().enumerate() {
        scheduler.submit(ServeRequest::new(vec![i + 1, i + 2, i + 3], decode_len));
    }

    let mut steps_taken = vec![0usize; decode_lens.len()];
    let mut step_index = 0;
    while !scheduler.is_idle() {
        let expected_active: Vec<usize> = decode_lens
            .iter()
            .enumerate()
            .filter(|(_, &len)| step_index < len)
            .map(|(i, _)| i)
            .collect();
        let events = scheduler.step();
        let progressed: Vec<usize> = events.iter().map(|e| e.request).collect();
        assert_eq!(
            progressed, expected_active,
            "step {step_index}: every unfinished request progresses, in admission order"
        );
        for event in &events {
            steps_taken[event.request] += 1;
            assert_eq!(
                event.finished,
                steps_taken[event.request] == decode_lens[event.request]
            );
        }
        step_index += 1;
    }
    assert_eq!(steps_taken.to_vec(), decode_lens.to_vec());

    let outcome = scheduler.finish().expect("all requests finished");
    for (i, served) in outcome.outcomes.iter().enumerate() {
        assert_eq!(served.generated.len(), decode_lens[i]);
    }
}

/// `serve` over N >= 4 concurrent sessions returns per-request outcomes
/// identical to sequential serving, and an aggregate that equals the sum of
/// the sequential serves' stats.
#[test]
fn serve_batch_matches_sequential_serving() {
    let requests: Vec<ServeRequest> = vec![
        ServeRequest::new(vec![3, 1, 4, 1, 5], 4),
        ServeRequest::builder(vec![2, 7, 1, 8, 2, 8])
            .decode_len(7)
            .build(),
        ServeRequest::builder(vec![6, 6, 6])
            .decode_len(5)
            .policy(CachePolicy::Full)
            .build(),
        ServeRequest::builder(vec![1, 61, 80, 33])
            .decode_len(6)
            .seed(99)
            .build(),
        ServeRequest::builder(vec![9, 9, 9, 9])
            .decode_len(3)
            .policy(CachePolicy::StreamingLlm)
            .build(),
    ];
    assert!(requests.len() >= 4);

    let batch_engine = engine_with_policy(CachePolicy::Aerp);
    let batch = serve(&batch_engine, requests.clone(), SchedulerConfig::default());
    assert_eq!(batch.outcomes.len(), requests.len());

    let sequential_engine = engine_with_policy(CachePolicy::Aerp);
    let mut sequential_sum = EngineStats::default();
    for (request, batched) in requests.into_iter().zip(batch.outcomes.iter()) {
        let before = sequential_engine.stats();
        let sequential = sequential_engine.serve_request(request);
        let after = sequential_engine.stats();

        assert_eq!(sequential.generated, batched.generated);
        assert_eq!(sequential.cache, batched.cache);
        assert_eq!(sequential.trace, batched.trace);
        assert!(
            (sequential.hardware.total_energy_j() - batched.hardware.total_energy_j()).abs() < 1e-9
        );
        sequential_sum = sequential_sum.merged(EngineStats {
            requests: after.requests - before.requests,
            tokens_generated: after.tokens_generated - before.tokens_generated,
            evictions: after.evictions - before.evictions,
            hardware_energy_j: after.hardware_energy_j - before.hardware_energy_j,
            prefix_hit_tokens: after.prefix_hit_tokens - before.prefix_hit_tokens,
        });
    }

    assert_eq!(batch.stats.requests, sequential_sum.requests);
    assert_eq!(
        batch.stats.tokens_generated,
        sequential_sum.tokens_generated
    );
    assert_eq!(batch.stats.evictions, sequential_sum.evictions);
    assert!((batch.stats.hardware_energy_j - sequential_sum.hardware_energy_j).abs() < 1e-9);

    // The engine-level lifetime stats agree with the batch aggregate too.
    let lifetime = batch_engine.stats();
    assert_eq!(lifetime.requests, batch.stats.requests);
    assert_eq!(lifetime.tokens_generated, batch.stats.tokens_generated);
    assert_eq!(lifetime.evictions, batch.stats.evictions);
    assert!((lifetime.hardware_energy_j - batch.stats.hardware_energy_j).abs() < 1e-9);
}

/// The streaming callback sees every token, in scheduler order, tagged with
/// its request index.
#[test]
fn streaming_callback_observes_every_token() {
    let engine = engine_with_policy(CachePolicy::Aerp);
    let requests = vec![
        ServeRequest::new(vec![1, 2, 3], 2),
        ServeRequest::new(vec![4, 5, 6], 4),
    ];
    let mut streamed: Vec<(usize, usize)> = Vec::new();
    let mut sink = |request: usize, token: usize| streamed.push((request, token));
    let batch = engine
        .serve(requests, ServeOptions::new().streaming(&mut sink))
        .expect("no chaos configured");

    let streamed_for = |request: usize| -> Vec<usize> {
        streamed
            .iter()
            .filter(|(r, _)| *r == request)
            .map(|(_, t)| *t)
            .collect()
    };
    assert_eq!(streamed_for(0), batch.outcomes[0].generated);
    assert_eq!(streamed_for(1), batch.outcomes[1].generated);
    // Round-robin interleaving: the first two scheduler steps alternate
    // between the two requests.
    assert_eq!(streamed[0].0, 0);
    assert_eq!(streamed[1].0, 1);
    assert_eq!(streamed[2].0, 0);
    assert_eq!(streamed[3].0, 1);
}

/// Four requests whose decode growth dominates their prompts, so that at
/// half capacity the first three are admitted together (prefills fit) and
/// then oversubscribe the budget while a fourth queues behind them.
fn contention_request_mix() -> Vec<ServeRequest> {
    vec![
        ServeRequest::new(vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3], 12),
        ServeRequest::builder(vec![2, 7, 1, 8, 2, 8, 1, 8, 2, 8, 4, 5, 9, 0, 4, 5])
            .decode_len(10)
            .policy(CachePolicy::Full)
            .build(),
        ServeRequest::new(vec![1, 6, 1, 8, 0, 3, 3, 9, 8, 8, 7, 4, 9, 8, 9, 4], 14),
        ServeRequest::builder(vec![5, 7, 7, 2, 1, 5, 6, 6, 4, 9, 6, 9, 2, 0, 9, 1])
            .decode_len(8)
            .seed(99)
            .build(),
    ]
}

/// Acceptance criterion of the capacity-arbitration refactor, part 1: with
/// the shared eDRAM capacity sized to hold every admitted request's final
/// footprint, a bounded `serve` reproduces the unbounded scheduler exactly —
/// same tokens, same traces, same aggregate stats, and zero queueing/spill.
#[test]
fn ample_capacity_reproduces_unbounded_serving_exactly() {
    let requests = contention_request_mix();

    let unbounded_engine = engine_with_policy(CachePolicy::Aerp);
    let unbounded = serve(
        &unbounded_engine,
        requests.clone(),
        SchedulerConfig::default(),
    );
    assert_eq!(unbounded.contention.capacity_bytes, None);

    let bounded_engine = engine_with_policy(CachePolicy::Aerp);
    let total: u64 = requests
        .iter()
        .map(|r| bounded_engine.kv_footprint_bytes(r.prompt().len() + r.decode_len()))
        .sum();
    let bounded = serve(
        &bounded_engine,
        requests,
        SchedulerConfig::default().with_kv_capacity_bytes(total),
    );

    assert_eq!(bounded.contention.capacity_bytes, Some(total));
    assert_eq!(bounded.contention.total_queue_ticks, 0);
    assert_eq!(bounded.contention.spill_bytes, 0);
    for (a, b) in unbounded.outcomes.iter().zip(bounded.outcomes.iter()) {
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.cache, b.cache);
        assert!((a.hardware.total_energy_j() - b.hardware.total_energy_j()).abs() < 1e-12);
        assert!((a.hardware.total_latency_s() - b.hardware.total_latency_s()).abs() < 1e-12);
    }
    assert_eq!(unbounded.stats, bounded.stats);
}

/// Acceptance criterion, part 2: with capacity halved, requests queue and the
/// outcome reports nonzero time-in-queue and spill bytes — while every
/// per-request token stream stays byte-identical to unbounded serving.
#[test]
fn halved_capacity_queues_and_spills_without_changing_tokens() {
    let requests = contention_request_mix();

    let unbounded_engine = engine_with_policy(CachePolicy::Aerp);
    let unbounded = serve(
        &unbounded_engine,
        requests.clone(),
        SchedulerConfig::default(),
    );

    let bounded_engine = engine_with_policy(CachePolicy::Aerp);
    let total: u64 = requests
        .iter()
        .map(|r| bounded_engine.kv_footprint_bytes(r.prompt().len() + r.decode_len()))
        .sum();
    let halved = serve(
        &bounded_engine,
        requests,
        SchedulerConfig::default().with_kv_capacity_bytes(total / 2),
    );

    // Contention shows up in the metrics...
    assert!(
        halved.contention.total_queue_ticks > 0,
        "requests must queue at half capacity"
    );
    assert!(
        halved.contention.spill_bytes > 0,
        "oversubscribed decode growth must spill"
    );
    assert!(halved.contention.peak_residency_bytes > total / 2);
    assert!(halved.contention.max_queue_ticks >= 1);
    let queued = halved
        .contention
        .per_request
        .iter()
        .filter(|t| t.queue_ticks > 0)
        .count();
    assert!(queued > 0);
    // ...and in the hardware cost model: contended requests were costed
    // against a slice of the eDRAM, so their DRAM traffic grew.
    let dram = |batch: &kelle::BatchOutcome| -> f64 {
        batch
            .outcomes
            .iter()
            .map(|o| o.hardware.total_energy().dram_j)
            .sum()
    };
    assert!(dram(&halved) > dram(&unbounded));
    // ...but never in the functional output.
    for (a, b) in unbounded.outcomes.iter().zip(halved.outcomes.iter()) {
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.cache, b.cache);
    }
    assert_eq!(unbounded.stats.requests, halved.stats.requests);
    assert_eq!(
        unbounded.stats.tokens_generated,
        halved.stats.tokens_generated
    );
    assert_eq!(unbounded.stats.evictions, halved.stats.evictions);
}

/// Admission policies reorder *service*, never *results*: outcomes stay in
/// submission order and token streams are unchanged under every policy.
#[test]
fn admission_policies_preserve_streams_and_order() {
    let requests = contention_request_mix();
    let reference = serve(
        &engine_with_policy(CachePolicy::Aerp),
        requests.clone(),
        SchedulerConfig::default(),
    );
    let engine = engine_with_policy(CachePolicy::Aerp);
    let total: u64 = requests
        .iter()
        .map(|r| engine.kv_footprint_bytes(r.prompt().len() + r.decode_len()))
        .sum();
    for admission in AdmissionPolicy::all() {
        let config = SchedulerConfig::default()
            .with_kv_capacity_bytes(total / 2)
            .with_admission(admission);
        let batch = serve(&engine, requests.clone(), config);
        for (a, b) in reference.outcomes.iter().zip(batch.outcomes.iter()) {
            assert_eq!(a.generated, b.generated, "{admission:?}");
        }
        assert_eq!(
            batch.contention.per_request.len(),
            requests.len(),
            "{admission:?}"
        );
    }
}

/// Per-request overrides are honoured: a `Full` policy request never evicts
/// even when the engine default is a tightly budgeted AERP.
#[test]
fn per_request_policy_overrides_apply() {
    let engine = KelleEngine::builder()
        .policy(CachePolicy::Aerp)
        .budget(
            CacheBudget::new(4)
                .with_recent_window(2)
                .with_sink_tokens(1),
        )
        .build();
    let prompt: Vec<usize> = (0..24).collect();

    let default_outcome = engine.serve_one(&prompt, 8);
    assert!(default_outcome.cache.evictions > 0);

    let full = engine.serve_request(
        ServeRequest::builder(prompt)
            .decode_len(8)
            .policy(CachePolicy::Full)
            .build(),
    );
    assert_eq!(full.cache.evictions, 0);
}

/// An injector built from the public cell map of a rate set and a seed
/// alone, counting its own reads: a second implementor of the trait beside
/// the engine's.
#[derive(Debug)]
struct OwnMap {
    map: CellMap,
    stats: FaultStats,
}

impl FaultInjector for OwnMap {
    fn cell_map(&self) -> Option<&CellMap> {
        Some(&self.map)
    }

    fn count(&mut self, words: u64, bits: u64) {
        self.stats.words_examined += words;
        self.stats.bits_flipped += bits;
    }

    fn stats(&self) -> FaultStats {
        self.stats
    }

    fn corrupt_slice(&mut self, _values: &mut [f32], _group: TokenGroup) {
        unreachable!("serving reads rows through the cell map")
    }
}

/// An anchor for the cell map outside its own sampler tests: what a served
/// 2DRP decode reports must follow from the refresh policy's rates and from
/// the reads the attention pass makes, whatever realises the flips.
#[test]
fn served_2drp_error_rate_sits_between_the_token_group_means() {
    let policy = RefreshPolicy::two_dimensional_default();
    let retention = RetentionModel::default();
    let rates = policy.bit_flip_rates(&retention);
    // Half of a word's bits are MSB-class, half LSB-class.
    let hst_mean = (rates.hst_msb + rates.hst_lsb) / 2.0;
    let lst_mean = (rates.lst_msb + rates.lst_lsb) / 2.0;
    assert!(hst_mean < lst_mean);

    let prompt: Vec<usize> = (0..24).map(|t| (3 + 5 * t) % 97).collect();
    let requests = || vec![ServeRequest::new(prompt.clone(), 48)];
    let engine = engine_with_policy(CachePolicy::Aerp);
    assert_eq!(engine.config().refresh_policy, policy);
    let inline = serve(&engine, requests(), SchedulerConfig::default());
    let faults = inline.outcomes[0].faults;
    // A served word is an HST or an LST word, and the decode reads both.
    let observed = faults.bit_error_rate();
    assert!(
        hst_mean < observed && observed < lst_mean,
        "bit error rate {observed} outside ({hst_mean}, {lst_mean})"
    );

    // The sampler decides which bits flip, never how many words are read.
    for workers in [1, 2, 4] {
        let engine = KelleEngine::builder()
            .policy(CachePolicy::Aerp)
            .seed(7)
            .workers(workers)
            .build();
        let parallel = engine
            .serve(requests(), ServeOptions::new().parallel())
            .expect("no chaos configured");
        assert_eq!(parallel.outcomes[0].faults, faults, "{workers} workers");
    }
    let config = GenerationConfig::greedy(48);
    let run = |faults: &mut dyn FaultInjector| {
        let dims = engine.model().dims();
        let mut cache = CachePolicy::Aerp.build(engine.config().budget, dims.heads);
        let output = run_with(
            engine.model(),
            &prompt,
            config,
            None,
            cache.as_mut(),
            faults,
        );
        (output.generated, faults.stats())
    };
    let served = run(&mut fault_injector_for_policy(&policy, &retention, 7));
    let own = run(&mut OwnMap {
        map: CellMap::new(rates, 7),
        stats: FaultStats::default(),
    });
    assert_eq!(served, own);
    assert!(served.1.words_examined > 0);
}

/// FNV-1a over little-endian words.
fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in words.into_iter().flat_map(u32::to_le_bytes) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Golden fixture: one 2DRP stream pinned to constants — default engine,
/// seed 7, AERP, the 24-token prompt of the test above, 48 decode tokens.
/// The equivalence suites show that the ways of serving a stream agree with
/// each other; this holds them to values outside the code.  Re-captured
/// when each stored AERP input row came to be read once per layer, on the
/// layer's row lane, and last when rows of the current pass came to be read
/// clean (served 672 768 words / 125 355 flips → 583 680 / 106 918; run
/// 0x6754_8e6e_19c4_3724 / 0x512d_718f_1ac7_c608 / 125 650 flips →
/// 0x84b9_8c06_b196_d362 / 0x1567_f442_d270_6580 / 107 732).  The run's
/// probabilities moved once more, 0x1567_f442_d270_6580 →
/// 0x94dc_f3a6_4743_7273, when a corrupted row's key and value came to be
/// corrected for its flipped words instead of recomputed from the whole row
/// (their rounding only; no token or fault count moved).  Everything moved
/// when a stored row's failing cells came to be fixed for the row instead
/// of drawn again at every read: the served stream (first tokens 48, 312,
/// 240 → 38, 106, 106; 106 918 → 113 918 flips, words unchanged) and the
/// run (0x84b9_8c06_b196_d362 / 0x94dc_f3a6_4743_7273 / 583 680 words /
/// 107 732 flips → 0x6f55_a08f_66dd_96c4 / 0x641e_97d8_4f73_fb25 / 583 552
/// / 109 558; its failures moved which rows AERP keeps).  A change that
/// moves a constant here has moved every digest kbench reports, and has to
/// say so.
#[test]
fn golden_2drp_stream_of_seed_7_is_pinned() {
    const SERVED_TOKENS: [usize; 48] = [
        38, 106, 106, 445, 112, 275, 46, 298, 81, 240, 270, 478, 478, 478, 199, 186, 166, 166, 226,
        275, 150, 416, 365, 476, 80, 316, 504, 15, 316, 397, 316, 128, 316, 206, 316, 386, 293,
        315, 86, 478, 56, 362, 275, 57, 57, 433, 56, 57,
    ];
    const SERVED_FAULTS: FaultStats = FaultStats {
        words_examined: 583_680,
        bits_flipped: 113_918,
    };
    // `run_with` on the policy's injector seeded 7 directly (a session derives
    // its fault seed from the engine's): it also exposes every step's
    // next-token distribution, so the probability bits are pinned here.
    const RUN_TOKENS_FNV1A: u64 = 0x6f55_a08f_66dd_96c4;
    const RUN_PROBS_FNV1A: u64 = 0x641e_97d8_4f73_fb25;
    const RUN_FAULTS: FaultStats = FaultStats {
        words_examined: 583_552,
        bits_flipped: 109_558,
    };

    let prompt: Vec<usize> = (0..24).map(|t| (3 + 5 * t) % 97).collect();
    let requests = || vec![ServeRequest::new(prompt.clone(), 48)];
    let engine = engine_with_policy(CachePolicy::Aerp);
    let inline = serve(&engine, requests(), SchedulerConfig::default());
    assert_eq!(inline.outcomes[0].generated, SERVED_TOKENS);
    assert_eq!(inline.outcomes[0].faults, SERVED_FAULTS);
    let parallel = engine
        .serve(requests(), ServeOptions::new().parallel())
        .expect("no chaos configured");
    assert_eq!(parallel.outcomes[0].generated, SERVED_TOKENS);
    assert_eq!(parallel.outcomes[0].faults, SERVED_FAULTS);

    let mut cache = CachePolicy::Aerp.build(engine.config().budget, engine.model().dims().heads);
    let mut faults = fault_injector_for_policy(
        &RefreshPolicy::two_dimensional_default(),
        &RetentionModel::default(),
        7,
    );
    let output = run_with(
        engine.model(),
        &prompt,
        GenerationConfig::greedy(48),
        None,
        cache.as_mut(),
        &mut faults,
    );
    let tokens = fnv1a(output.generated.iter().map(|&t| t as u32));
    let probs = fnv1a(output.step_probs.iter().flatten().map(|p| p.to_bits()));
    assert_eq!(
        (tokens, probs, faults.stats()),
        (RUN_TOKENS_FNV1A, RUN_PROBS_FNV1A, RUN_FAULTS),
        "tokens {tokens:#018x}, probabilities {probs:#018x}"
    );
}
