//! `kbench layers`: each layer's public functions timed in isolation.
//!
//! Hygiene: every kernel is warmed up, then timed in five batches whose size
//! is calibrated so the five together run at least 200 ms or 100 000
//! iterations; the median batch is reported.  Inputs and outputs pass
//! through `black_box`.  Shapes come from the engine's `SurrogateDims`, and
//! weights are the model's own, never literals.  Cache policies are filled
//! to the budget first, so `insert` measures the evicting path.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use kelle::arch::InferenceWorkload;
use kelle::edram::{CapacityLedger, MemoryTier, RetentionModel, TierAccounts, TierBudgets};
use kelle::model::fault::{FaultInjector, NoFaults, TokenGroup};
use kelle::model::generation::{decode_step, prefill, prefill_extend, GenerationState};
use kelle::model::{
    DecodeScratch, FullKvCache, KvCacheBackend, MultiHeadAttention, SegmentRecorder,
};
use kelle::tensor::ops::{rms_norm_into, softmax_into};
use kelle::tensor::{dot, Matrix};
use kelle::workloads::TraceEngine;
use kelle::{
    fault_injector_for_policy, BatchScheduler, CachePolicy, FrontConfig, KelleEngine, PrefixKey,
    PrefixStore, ServeRequest, StreamPoll,
};

use crate::drive::default_engine;
use crate::measure::Metric;
use crate::spec;
use crate::stats::{median, SplitMix64};
use crate::workloads::{fleet_config, FLEET_SESSIONS, VOCAB};

const BATCHES: usize = 5;
const MIN_TOTAL_SECONDS: f64 = 0.2;
const MAX_TOTAL_ITERATIONS: usize = 100_000;

/// Nanoseconds per call of `f`: median over [`BATCHES`] calibrated batches.
fn bench(mut f: impl FnMut()) -> f64 {
    // Warm-up doubles until 10 ms have passed, which also yields the
    // per-call estimate the batch size is calibrated from.
    let mut calls = 1usize;
    let per_call = loop {
        let begin = Instant::now();
        for _ in 0..calls {
            f();
        }
        let elapsed = begin.elapsed().as_secs_f64();
        if elapsed >= 0.01 {
            break elapsed / calls as f64;
        }
        calls *= 2;
    };
    let for_time = (MIN_TOTAL_SECONDS / BATCHES as f64 / per_call).ceil() as usize;
    let batch = for_time.clamp(1, MAX_TOTAL_ITERATIONS / BATCHES);
    let times: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let begin = Instant::now();
            for _ in 0..batch {
                f();
            }
            begin.elapsed().as_secs_f64() * 1e9 / batch as f64
        })
        .collect();
    median(&times)
}

struct Collector(Vec<Metric>);

impl Collector {
    fn push(&mut self, name: &str, value: f64) {
        self.0.push(Metric::new(spec::per_layer(name), value));
    }
}

/// Every per-layer metric that does not depend on the workload.
pub fn run() -> Vec<Metric> {
    let engine = default_engine(1, false);
    let mut out = Collector(Vec::new());
    tensor(&engine, &mut out);
    model(&engine, &mut out);
    for policy in CachePolicy::all() {
        cache(&engine, policy, &mut out);
    }
    edram(&mut out);
    serving(&engine, &mut out);
    prefix(&mut out);
    out.0
}

fn random_vector(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    (0..len)
        .map(|_| (rng.next_u64() % 2001) as f32 / 1000.0 - 1.0)
        .collect()
}

fn tensor(engine: &KelleEngine, out: &mut Collector) {
    let dims = *engine.model().dims();
    let weights = engine.model().weights();
    let layer = &weights.layers[0];
    let x = random_vector(dims.channels, 1);
    let y = random_vector(dims.channels, 2);
    out.push(
        "tensor.dot_ns",
        bench(|| {
            black_box(dot(black_box(&x), black_box(&y)));
        }),
    );
    let mut buffer = Vec::new();
    let mut matvec = |matrix: &Matrix| {
        assert_eq!(matrix.cols(), dims.channels);
        bench(|| {
            matrix
                .matvec_into(black_box(&x), &mut buffer)
                .expect("shapes match");
            black_box(&buffer);
        })
    };
    out.push("tensor.matvec_qkv_ns", matvec(&layer.wq));
    out.push("tensor.matvec_ffn_ns", matvec(&layer.w_gate));
    let lm_head = &weights.embedding;
    assert_eq!(lm_head.rows(), dims.vocab);
    let lm_head_ns = matvec(lm_head);
    out.push("tensor.matvec_lm_head_ns", lm_head_ns);
    // Rates of the LM-head matvec, the largest kernel.  Bytes are computed
    // from the tensor sizes (weights + input + output, f32), not measured.
    let flops = 2.0 * (dims.vocab * dims.channels) as f64;
    let bytes = 4.0 * (dims.vocab * dims.channels + dims.channels + dims.vocab) as f64;
    out.push("tensor.matvec_gflops", flops / lm_head_ns);
    out.push("tensor.matvec_gbps", bytes / lm_head_ns);
    // Softmax runs over one head's scores at a full cache.
    let scores = random_vector(engine.config().budget.max_tokens, 3);
    let mut probs = scores.clone();
    out.push(
        "tensor.softmax_ns",
        bench(|| {
            probs.copy_from_slice(black_box(&scores));
            softmax_into(&mut probs);
            black_box(&probs);
        }),
    );
    out.push(
        "tensor.rms_norm_ns",
        bench(|| {
            rms_norm_into(black_box(&x), &layer.attn_norm, 1e-5, &mut buffer);
            black_box(&buffer);
        }),
    );
}

/// Microseconds per decode step at a context of `budget` tokens: five fresh
/// states, each pre-filled to the budget (untimed) and stepped `budget / 2`
/// times.  Returns `(decode_step_us, prefill_token_us)`.
fn generation_costs(
    engine: &KelleEngine,
    make: &dyn Fn() -> Box<dyn KvCacheBackend>,
) -> (f64, f64) {
    let model = engine.model();
    let context = engine.config().budget.max_tokens;
    let prompt = SplitMix64::new(11).tokens(context, VOCAB);
    let mut decode = Vec::new();
    let mut fill = Vec::new();
    for _ in 0..BATCHES {
        let mut cache = make();
        let mut state = GenerationState::new();
        let begin = Instant::now();
        prefill(model, &mut state, &prompt, cache.as_mut(), &mut NoFaults);
        fill.push(begin.elapsed().as_secs_f64() * 1e6 / context as f64);
        let steps = context / 2;
        let begin = Instant::now();
        for _ in 0..steps {
            black_box(decode_step(
                model,
                &mut state,
                None,
                cache.as_mut(),
                &mut NoFaults,
            ));
        }
        decode.push(begin.elapsed().as_secs_f64() * 1e6 / steps as f64);
    }
    (median(&decode), median(&fill))
}

fn model(engine: &KelleEngine, out: &mut Collector) {
    let dims = *engine.model().dims();
    let config = engine.config();
    let context = config.budget.max_tokens;
    let (decode_us, prefill_us) = generation_costs(engine, &|| Box::new(FullKvCache::new()));
    out.push("model.decode_step_us", decode_us);
    out.push("model.prefill_token_us", prefill_us);

    // One layer's attention at a full cache.  The engine's own policy keeps
    // the context at the budget while the benchmark keeps inserting.
    let layer = &engine.model().weights().layers[0];
    let attention = MultiHeadAttention::new(layer, dims.heads);
    let mut cache = config.policy.build(config.budget, dims.heads);
    cache.finish_prefill(0);
    let mut scratch = DecodeScratch::new();
    let x = random_vector(dims.channels, 4);
    let mut position = 0;
    let mut attend = || {
        black_box(attention.forward_with(
            0,
            position,
            position,
            black_box(&x),
            cache.as_mut(),
            &mut NoFaults,
            &mut scratch,
        ));
        position += 1;
    };
    (0..context).for_each(|_| attend());
    out.push("model.attention_us", bench(attend) / 1e3);

    // Multiply-accumulates of one surrogate token at a full cache: the
    // projections, the score and value passes over the cache, the LM head.
    let projections = 4 * dims.channels * dims.channels + 3 * dims.channels * dims.ffn_dim;
    let attention_macs = 2 * context * dims.channels;
    let macs = dims.layers * (projections + attention_macs) + dims.vocab * dims.channels;
    out.push("model.macs_per_token", macs as f64);

    let mut faults =
        fault_injector_for_policy(&config.refresh_policy, &RetentionModel::default(), 5);
    let mut words = random_vector(dims.head_dim(), 6);
    let per_slice = bench(|| {
        faults.corrupt_slice(black_box(&mut words), TokenGroup::LowScore);
        black_box(&words);
    });
    out.push(
        "model.fault_corrupt_ns_per_word",
        per_slice / dims.head_dim() as f64,
    );
}

fn cache(engine: &KelleEngine, policy: CachePolicy, out: &mut Collector) {
    let dims = *engine.model().dims();
    let budget = engine.config().budget;
    let head_dim = dims.head_dim();
    let name = policy.name();
    let x = random_vector(dims.channels, 7);
    let keys = random_vector(dims.channels, 8);
    let values = random_vector(dims.channels, 9);
    let filled = || {
        let mut cache = policy.build(budget, dims.heads);
        cache.finish_prefill(0);
        for token in 0..budget.max_tokens {
            cache.insert(0, token, &x, &keys, &values, head_dim);
        }
        cache
    };

    // Policies without a budget grow with every insert; starting over every
    // 4096 inserts keeps them near the budget at under 2 % refill cost.
    let mut cache = filled();
    let mut token = budget.max_tokens;
    out.push(
        &format!("cache.{name}.insert_ns"),
        bench(|| {
            if token == budget.max_tokens + 4096 {
                cache = filled();
                token = budget.max_tokens;
            }
            cache.insert(0, token, black_box(&x), &keys, &values, head_dim);
            token += 1;
        }),
    );

    let mut cache = filled();
    let mut scores = Vec::new();
    cache.for_each_entry(0, 0, &mut |entry| scores.push((entry.token, 0.01f32)));
    out.push(
        &format!("cache.{name}.observe_ns"),
        bench(|| cache.observe_attention(0, 0, black_box(&scores))),
    );

    let entries = cache.entry_count(0, 0);
    let per_head = bench(|| {
        cache.for_each_entry(0, 0, &mut |entry| {
            black_box(entry.token);
        });
    });
    out.push(
        &format!("cache.{name}.read_ns_per_entry"),
        per_head / entries as f64,
    );

    let (decode_us, _) = generation_costs(engine, &|| policy.build(budget, dims.heads));
    out.push(&format!("cache.{name}.decode_step_us"), decode_us);
}

fn edram(out: &mut Collector) {
    let mut ledger = CapacityLedger::new(u64::MAX);
    out.push(
        "edram.ledger_reserve_release_ns",
        bench(|| {
            let lease = ledger
                .reserve(black_box(4096))
                .expect("capacity is unbounded");
            black_box(ledger.release(lease));
        }),
    );
    let growths: Vec<_> = (0..16).map(|_| (ledger.force_reserve(4096), 64)).collect();
    out.push(
        "edram.ledger_commit_growth_ns",
        bench(|| ledger.commit_growth(black_box(&growths))),
    );
    let mut tiers = TierAccounts::new(TierBudgets::with_edram(1 << 20).with_dram(1 << 20));
    tiers.place(MemoryTier::Edram, 4096);
    out.push(
        "edram.tier_migrate_ns",
        bench(|| {
            tiers.migrate(MemoryTier::Edram, MemoryTier::Dram, black_box(4096));
            tiers.migrate(MemoryTier::Dram, MemoryTier::Edram, black_box(4096));
        }) / 2.0,
    );
}

/// arch, session, scheduler, front, prefix publication and the trace
/// generator: everything that needs a whole engine.
fn serving(engine: &KelleEngine, out: &mut Collector) {
    let config = engine.config();
    let context = config.budget.max_tokens;
    let workload = InferenceWorkload::new("kbench", context, 16, config.batch);
    out.push(
        "arch.simulate_us",
        bench(|| {
            black_box(engine.platform().simulate(
                engine.model().config(),
                black_box(&workload),
                Some(config.hardware_n_prime),
            ));
        }) / 1e3,
    );

    out.push(
        "session.open_us",
        bench(|| {
            black_box(engine.open_session());
        }) / 1e3,
    );
    // Three fresh sessions: a cold prefill to the budget, then decode steps
    // at a full cache — both through the 2DRP fault lane.
    let prompt = SplitMix64::new(12).tokens(context, VOCAB);
    let mut prefill_us = Vec::new();
    let mut decode_us = Vec::new();
    let mut miss_ms = Vec::new();
    for _ in 0..3 {
        let mut session = engine.open_session();
        let begin = Instant::now();
        session.prefill(&prompt);
        let prefilled = begin.elapsed().as_secs_f64();
        black_box(session.decode_one());
        miss_ms.push(begin.elapsed().as_secs_f64() * 1e3);
        prefill_us.push(prefilled * 1e6 / context as f64);
        let steps = 8;
        let begin = Instant::now();
        for _ in 0..steps {
            black_box(session.decode_one());
        }
        decode_us.push(begin.elapsed().as_secs_f64() * 1e6 / steps as f64);
    }
    out.push("session.prefill_token_us", median(&prefill_us));
    out.push("session.decode_one_us", median(&decode_us));

    // Time to first token of the same prompt with its first three quarters
    // published, over the cold time just measured.
    let sharing = default_engine(1, true);
    let boundary = context * 3 / 4;
    let begin = Instant::now();
    assert!(sharing.publish_prefix(&prompt[..boundary]));
    let mut publish_us = vec![begin.elapsed().as_secs_f64() * 1e6 / boundary as f64];
    for seed in [13, 14] {
        let other = SplitMix64::new(seed).tokens(boundary, VOCAB);
        let begin = Instant::now();
        assert!(sharing.publish_prefix(&other));
        publish_us.push(begin.elapsed().as_secs_f64() * 1e6 / boundary as f64);
    }
    out.push("prefix.publish_us_per_token", median(&publish_us));
    let hit_ms: Vec<f64> = (0..3)
        .map(|_| {
            let begin = Instant::now();
            let mut session = sharing.open_session();
            session.prefill(&prompt);
            assert_eq!(session.prefix_hit_tokens(), boundary);
            black_box(session.decode_one());
            begin.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.push("prefix.hit_ttft_ratio", median(&hit_ms) / median(&miss_ms));

    // A tick with no model step: a thousand requests held back by a
    // far-future arrival tick, so the scheduler only advances its clock.
    let mut scheduler = BatchScheduler::new(engine);
    for _ in 0..1000 {
        scheduler.submit(
            ServeRequest::builder(vec![1, 2, 3])
                .decode_len(1)
                .arrival_tick(u64::MAX / 2)
                .build(),
        );
    }
    out.push(
        "scheduler.idle_tick_us",
        bench(|| {
            black_box(scheduler.step());
        }) / 1e3,
    );

    let poll_ns = engine
        .front(FrontConfig::new(), |front| {
            let stream = front
                .submit(ServeRequest::new(vec![1, 2, 3], 1))
                .expect("the queue is unbounded");
            bench(|| assert_eq!(black_box(stream.try_next()), StreamPoll::Pending))
        })
        .0;
    out.push("front.poll_ns", poll_ns);

    let generator = TraceEngine::new(fleet_config(FLEET_SESSIONS));
    out.push(
        "workloads.trace_generate_ms",
        bench(|| {
            black_box(generator.generate());
        }) / 1e6,
    );
}

/// Prefix-store lookup and segment replay, on a segment recorded through the
/// public recorder exactly as `publish_prefix` records one.
fn prefix(out: &mut Collector) {
    let engine = default_engine(1, false);
    let config = engine.config();
    let model = engine.model();
    let heads = model.dims().heads;
    let boundary = config.budget.max_tokens * 3 / 4;
    let tokens = SplitMix64::new(15).tokens(boundary, VOCAB);
    let mut faults =
        fault_injector_for_policy(&config.refresh_policy, &RetentionModel::default(), 16);
    let mut backing = config.policy.build(config.budget, heads);
    let mut state = GenerationState::new();
    let mut recorder = SegmentRecorder::new(backing.as_mut());
    prefill_extend(model, &mut state, &tokens, &mut recorder, &mut faults);
    let segment = Arc::new(recorder.finish(state.last_logits(), faults.clone()));

    out.push(
        "model.segment_replay_us_per_token",
        bench(|| {
            let mut cache = config.policy.build(config.budget, heads);
            segment.attach_and_replay(cache.as_mut());
            black_box(cache);
        }) / 1e3
            / boundary as f64,
    );

    let key = PrefixKey {
        policy: config.policy,
        budget: config.budget.clamped(),
        seed: config.seed,
    };
    let mut store = PrefixStore::new();
    store
        .publish(&tokens, key, Arc::clone(&segment))
        .expect("the store is empty");
    let mut prompt = tokens.clone();
    prompt.extend(SplitMix64::new(17).tokens(16, VOCAB));
    out.push(
        "prefix.lookup_us",
        bench(|| {
            black_box(store.lookup(black_box(&prompt), &key));
        }) / 1e3,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_a_positive_time_that_grows_with_the_work() {
        let data = random_vector(4096, 1);
        let small = bench(|| {
            black_box(dot(black_box(&data[..64]), black_box(&data[64..128])));
        });
        let large = bench(|| {
            black_box(dot(black_box(&data[..2048]), black_box(&data[2048..])));
        });
        assert!(small > 0.0);
        assert!(large > 4.0 * small, "{small} vs {large}");
    }
}
