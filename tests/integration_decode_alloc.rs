//! Decode acceptance tests for the one decode body (`forward_with` per
//! layer, reading each cache head through one borrowed `HeadView`):
//!
//! 1. **Zero steady-state heap growth** — once the scratch buffers and policy
//!    arenas have warmed up, a decode step must not grow the heap at all,
//!    and must call the allocator exactly once — for the `probs` vector the
//!    returned `DecodeStep` owns — with `NoFaults` or with 2DRP retention
//!    faults (measured with a counting global allocator, per thread so
//!    parallel tests cannot pollute the ledger).
//! 2. **Golden streams** — for every cache policy, with and without active
//!    fault injection, `run_with` reproduces pinned constants: an FNV-1a of
//!    the tokens and of every step's probability bits, the final
//!    `CacheStats` and the `FaultStats`.  The constants live outside the
//!    code, so a change that moves one has changed what the model computes
//!    and must re-capture the table and say why.
//! 3. **Arena-footprint stats** — `CacheStats::bytes_fp16` tracks live
//!    entries (stride × count), not retired buffer capacity, across a real
//!    decode with heavy eviction.
//! 4. **AERP without faults is H2O** — the same eviction core storing `x`
//!    instead of K/V serves the same tokens and probability bits, so a key
//!    rotated by its row's angle table at every read equals the key rotated
//!    by its position's table at insert.
//! 5. **A publication's transient is what it keeps** — the replay log's
//!    pools are reserved at their final sizes, so a publication peaks
//!    beyond a cold pre-fill of its prompt by about what its segment keeps
//!    (the allocator also keeps a per-thread high-water mark).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use kelle::cache::{CacheBudget, CachePolicy};
use kelle::edram::{RefreshPolicy, RetentionModel};
use kelle::model::fault::{BitFlipRates, FaultInjector, NoFaults, ProbabilisticFaults};
use kelle::model::generation::{decode_step, prefill, run_with, GenerationConfig, GenerationState};
use kelle::model::{CacheStats, FaultStats, ModelConfig, ModelKind, SurrogateDims, SurrogateModel};
use kelle::{fault_injector_for_policy, KelleEngine, PrefixSharingConfig};

thread_local! {
    /// Net heap bytes held by the current thread (allocations minus frees).
    static NET_HEAP: Cell<isize> = const { Cell::new(0) };
    /// Allocation and reallocation calls made by the current thread.
    static ALLOC_CALLS: Cell<usize> = const { Cell::new(0) };
    /// The high-water mark of `NET_HEAP` since the last `reset_peak_heap`.
    static PEAK_HEAP: Cell<isize> = const { Cell::new(0) };
}

/// Adds `delta` to the current thread's net heap and raises its high-water
/// mark.
fn grow_net_heap(delta: isize) {
    let _ = NET_HEAP.try_with(|net| {
        net.set(net.get() + delta);
        let _ = PEAK_HEAP.try_with(|peak| peak.set(peak.get().max(net.get())));
    });
}

/// A `System`-backed allocator that keeps a per-thread net-bytes ledger and
/// a per-thread count of allocating calls.
struct CountingAllocator;

// SAFETY: defers all allocation to `System`; the bookkeeping only touches a
// per-thread `Cell` via `try_with` (no allocation, no panics during thread
// teardown).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow_net_heap(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        let _ = NET_HEAP.try_with(|c| c.set(c.get() - layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            grow_net_heap(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn net_heap_bytes() -> isize {
    NET_HEAP.with(Cell::get)
}

fn alloc_calls() -> usize {
    ALLOC_CALLS.with(Cell::get)
}

/// Starts a new high-water mark at the current net heap.
fn reset_peak_heap() {
    PEAK_HEAP.with(|peak| peak.set(net_heap_bytes()));
}

fn peak_heap_bytes() -> isize {
    PEAK_HEAP.with(Cell::get)
}

fn small_model(seed: u64) -> SurrogateModel {
    let config = ModelConfig::for_kind(ModelKind::Llama2_7b).with_surrogate(SurrogateDims {
        layers: 2,
        heads: 4,
        channels: 32,
        ffn_dim: 64,
        vocab: 96,
    });
    SurrogateModel::new(config, seed)
}

fn prompt(len: usize, seed: usize) -> Vec<usize> {
    (0..len).map(|i| (i * 31 + seed * 7 + 3) % 96).collect()
}

fn budget() -> CacheBudget {
    CacheBudget::new(12)
        .with_recent_window(4)
        .with_sink_tokens(2)
}

/// Asserts that, for each budgeted policy at steady state (arenas at
/// capacity, scratch warm), each decode step's net heap delta is exactly zero
/// — transient allocations must be matched by frees, and nothing may
/// accumulate — and that the step calls the allocator exactly once: for the
/// `probs` vector the returned `DecodeStep` owns.  Nothing in the cache,
/// the attention pass or its cell reads allocates.
fn assert_zero_steady_state_heap_growth(faults: &mut dyn FaultInjector) {
    let model = small_model(7);
    let heads = model.dims().heads;
    for policy in [
        CachePolicy::StreamingLlm,
        CachePolicy::H2o,
        CachePolicy::Aerp,
    ] {
        let mut cache = policy.build(budget(), heads);
        let mut state = GenerationState::new();
        prefill(&model, &mut state, &prompt(24, 1), cache.as_mut(), faults);
        // Warm up: reach eviction steady state and grow every scratch buffer
        // and arena to its working capacity.  AERP's cross-head retained-set
        // union takes a while to hit its high-water mark (the input slab
        // grows until then), hence the generous warm-up window.
        for _ in 0..192 {
            let _ = decode_step(&model, &mut state, None, cache.as_mut(), faults);
        }
        // Long enough that a buffer growing by one entry per token (say, a
        // table indexed by position) reaches its next capacity doubling
        // inside the window instead of after it.
        let start = net_heap_bytes();
        for step in 0..320 {
            let calls = alloc_calls();
            let out = decode_step(&model, &mut state, None, cache.as_mut(), faults);
            assert_eq!(
                alloc_calls() - calls,
                1,
                "policy {} called the allocator beyond its probs vector at steady-state step {step}",
                policy.name()
            );
            drop(out);
            assert_eq!(
                net_heap_bytes() - start,
                0,
                "policy {} leaked heap at steady-state step {step}",
                policy.name()
            );
        }
    }
}

/// Acceptance criterion 1: zero steady-state heap growth with `NoFaults`
/// (keys and values read by reference straight out of the arenas).
#[test]
fn decode_steps_have_zero_steady_state_heap_growth() {
    assert_zero_steady_state_heap_growth(&mut NoFaults);
}

/// The same guarantee on the staged-read path the serving engine runs: 2DRP
/// retention faults at the default rates.  A row's failing words are kept
/// from its first read in pools sized to twice their mean, the per-slot
/// tables follow the slab's capacity, and a row's scratch lists hold a whole
/// row, so a warm decode rebuilds rows without allocating whichever slots
/// and failures a seed brings.  At each of these seeds some row after the
/// warm-up fails in more words than every row before it.
#[test]
fn decode_steps_have_zero_steady_state_heap_growth_under_2drp_faults() {
    for seed in [11, 13, 17, 27, 36, 41, 54, 59] {
        let mut faults = fault_injector_for_policy(
            &RefreshPolicy::two_dimensional_default(),
            &RetentionModel::default(),
            seed,
        );
        assert_zero_steady_state_heap_growth(&mut faults);
        assert!(faults.stats().bits_flipped > 0);
    }
}

/// The allocator calls each of `steps` decode steps makes under `policy`,
/// after a warm-up of `warm_up` steps from the same prompt.
fn decode_alloc_calls(policy: CachePolicy, warm_up: usize, steps: usize) -> Vec<usize> {
    let model = small_model(7);
    let mut cache = policy.build(budget(), model.dims().heads);
    let mut state = GenerationState::new();
    prefill(
        &model,
        &mut state,
        &prompt(24, 1),
        cache.as_mut(),
        &mut NoFaults,
    );
    for _ in 0..warm_up {
        let _ = decode_step(&model, &mut state, None, cache.as_mut(), &mut NoFaults);
    }
    (0..steps)
        .map(|_| {
            let calls = alloc_calls();
            drop(decode_step(
                &model,
                &mut state,
                None,
                cache.as_mut(),
                &mut NoFaults,
            ));
            alloc_calls() - calls
        })
        .collect()
}

/// QuaRot stores the int4 image of each key and value, written in place
/// into the row its arena just pushed, so its insert allocates nothing: a
/// decode step calls the allocator no more often than Full's does from the
/// same prompt.  Neither evicts, so both arenas grow by one row a step and
/// reallocate at the same steps.
#[test]
fn quarot_decode_steps_allocate_no_more_than_full_ones() {
    let full = decode_alloc_calls(CachePolicy::Full, 64, 160);
    let quarot = decode_alloc_calls(CachePolicy::QuaRotInt4, 64, 160);
    for (step, (q, f)) in quarot.iter().zip(&full).enumerate() {
        assert!(
            q <= f,
            "QuaRot called the allocator {q} times at step {step}, Full {f}"
        );
    }
}

/// FNV-1a over little-endian words.
fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in words.into_iter().flat_map(u32::to_le_bytes) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One row of the model-level golden matrix: what `run_with` produces for
/// `policy` without faults (model seed 21, 20-token prompt, 12 decode
/// tokens) or under uniform 1 % bit flips seeded 17 (model seed 33, 16-token
/// prompt, 8 decode tokens), both at the 12-token budget above.
struct GoldenRun {
    policy: CachePolicy,
    faulted: bool,
    tokens_fnv1a: u64,
    probs_fnv1a: u64,
    cache: CacheStats,
    faults: FaultStats,
}

/// Captured while a second, materialize-then-compute decode body still
/// existed and agreed with the hot path on every row, bit for bit.  The
/// faulted AERP row was re-captured when each stored input row came to be
/// read, and corrupted, once per layer instead of once per retaining head.
/// Every faulted row was re-captured when a row computed by the current
/// pass came to be read clean (the prompt's rows during its pre-fill, a
/// decode token's own row): full 0xce92_a1fd_76ca_0868 / 38 400 words →
/// 0x0390_a7de_37b5_834e / 19 968, streaming-llm 0x9575_ad08_049f_9dbe /
/// 28 416 → 0xada1_72d4_f555_13dc / 11 264, h2o 0x9224_a8cb_5978_4945 /
/// 29 696 → 0x1d0d_0513_9a74_fd56 / 11 264, quarot-kv4 0x1831_8eb8_ec09_675e
/// / 38 400 → 0x90ba_903d_634d_ad75 / 19 968, aerp 0x13b5_278f_03d5_78a0 /
/// 16 928 → 0x1b5b_0c15_b9bc_4c66 / 8 224 (its flips moved which tokens it
/// keeps, 34 → 36 rows).  No no-fault row moved.  The faulted AERP row's
/// probabilities moved once more when a corrupted row's key and value came
/// to be corrected for its flipped words instead of recomputed from the
/// whole row, which changes their rounding only: 0x1437_80a3_5b6d_2ce8 →
/// 0x3631_85d3_9954_f3f0.  Its tokens, cache and fault counters did not move.
/// Every faulted row was re-captured when a stored row's failing cells came
/// to be fixed for the row instead of drawn again at every read (tokens /
/// probabilities / bits flipped): full 0x0390_a7de_37b5_834e /
/// 0xfdde_cde0_9305_8941 / 3 099 → 0xf016_bf79_d5de_c82e /
/// 0x8fdc_6bb2_c319_2c01 / 3 200, streaming-llm 0xada1_72d4_f555_13dc /
/// 0x325e_7d01_fe90_c033 / 1 744 → 0x261e_3871_5913_e3cb /
/// 0x35b8_9cb5_b38c_ffa2 / 1 714, h2o 0x1d0d_0513_9a74_fd56 /
/// 0x4d12_34c4_3af4_c7c8 / 1 740 → 0xe317_7575_5a44_a397 /
/// 0xa9d2_d9ad_bcb5_2b96 / 1 795, quarot-kv4 0x90ba_903d_634d_ad75 /
/// 0x8583_9763_4b48_c10f / 3 098 → 0x6898_bf10_1781_876e /
/// 0xd529_86fa_fa3a_2b80 / 3 200, aerp 0x1b5b_0c15_b9bc_4c66 /
/// 0x3631_85d3_9954_f3f0 / 1 382 → 0x97b0_c626_d45c_fbaa /
/// 0xd47b_1ec9_9267_ac99 / 1 198 (its failures moved which tokens it keeps,
/// 36 → 35 rows, and so its words examined, 8 224 → 8 160).  No no-fault
/// row and no other words-examined count moved.
const GOLDEN_RUNS: [GoldenRun; 10] = [
    GoldenRun {
        policy: CachePolicy::Full,
        faulted: false,
        tokens_fnv1a: 0xbfba_ea6e_70e7_03e3,
        probs_fnv1a: 0x16a6_4fbd_1f83_9654,
        cache: CacheStats {
            kv_entries: 256,
            recompute_entries: 0,
            evictions: 0,
            insertions: 64,
            bytes_fp16: 8_192,
        },
        faults: FaultStats {
            words_examined: 0,
            bits_flipped: 0,
        },
    },
    GoldenRun {
        policy: CachePolicy::StreamingLlm,
        faulted: false,
        tokens_fnv1a: 0x4a96_98e8_9b06_025b,
        probs_fnv1a: 0x8672_cb77_a9b2_47c0,
        cache: CacheStats {
            kv_entries: 96,
            recompute_entries: 0,
            evictions: 160,
            insertions: 64,
            bytes_fp16: 3_072,
        },
        faults: FaultStats {
            words_examined: 0,
            bits_flipped: 0,
        },
    },
    GoldenRun {
        policy: CachePolicy::H2o,
        faulted: false,
        tokens_fnv1a: 0xde61_74b6_e79c_cbb5,
        probs_fnv1a: 0x18a4_1c4c_04ee_9017,
        cache: CacheStats {
            kv_entries: 96,
            recompute_entries: 0,
            evictions: 160,
            insertions: 64,
            bytes_fp16: 3_072,
        },
        faults: FaultStats {
            words_examined: 0,
            bits_flipped: 0,
        },
    },
    GoldenRun {
        policy: CachePolicy::QuaRotInt4,
        faulted: false,
        tokens_fnv1a: 0x7550_5460_e8ec_67b3,
        probs_fnv1a: 0xafe3_72d1_9c11_93e7,
        cache: CacheStats {
            kv_entries: 256,
            recompute_entries: 0,
            evictions: 0,
            insertions: 64,
            bytes_fp16: 2_048,
        },
        faults: FaultStats {
            words_examined: 0,
            bits_flipped: 0,
        },
    },
    GoldenRun {
        policy: CachePolicy::Aerp,
        faulted: false,
        tokens_fnv1a: 0xde61_74b6_e79c_cbb5,
        probs_fnv1a: 0x18a4_1c4c_04ee_9017,
        cache: CacheStats {
            kv_entries: 0,
            recompute_entries: 38,
            evictions: 160,
            insertions: 64,
            bytes_fp16: 2_432,
        },
        faults: FaultStats {
            words_examined: 0,
            bits_flipped: 0,
        },
    },
    GoldenRun {
        policy: CachePolicy::Full,
        faulted: true,
        tokens_fnv1a: 0xf016_bf79_d5de_c82e,
        probs_fnv1a: 0x8fdc_6bb2_c319_2c01,
        cache: CacheStats {
            kv_entries: 192,
            recompute_entries: 0,
            evictions: 0,
            insertions: 48,
            bytes_fp16: 6_144,
        },
        faults: FaultStats {
            words_examined: 19_968,
            bits_flipped: 3_200,
        },
    },
    GoldenRun {
        policy: CachePolicy::StreamingLlm,
        faulted: true,
        tokens_fnv1a: 0x261e_3871_5913_e3cb,
        probs_fnv1a: 0x35b8_9cb5_b38c_ffa2,
        cache: CacheStats {
            kv_entries: 96,
            recompute_entries: 0,
            evictions: 96,
            insertions: 48,
            bytes_fp16: 3_072,
        },
        faults: FaultStats {
            words_examined: 11_264,
            bits_flipped: 1_714,
        },
    },
    GoldenRun {
        policy: CachePolicy::H2o,
        faulted: true,
        tokens_fnv1a: 0xe317_7575_5a44_a397,
        probs_fnv1a: 0xa9d2_d9ad_bcb5_2b96,
        cache: CacheStats {
            kv_entries: 96,
            recompute_entries: 0,
            evictions: 96,
            insertions: 48,
            bytes_fp16: 3_072,
        },
        faults: FaultStats {
            words_examined: 11_264,
            bits_flipped: 1_795,
        },
    },
    GoldenRun {
        policy: CachePolicy::QuaRotInt4,
        faulted: true,
        tokens_fnv1a: 0x6898_bf10_1781_876e,
        probs_fnv1a: 0xd529_86fa_fa3a_2b80,
        cache: CacheStats {
            kv_entries: 192,
            recompute_entries: 0,
            evictions: 0,
            insertions: 48,
            bytes_fp16: 1_536,
        },
        faults: FaultStats {
            words_examined: 19_968,
            bits_flipped: 3_200,
        },
    },
    GoldenRun {
        policy: CachePolicy::Aerp,
        faulted: true,
        tokens_fnv1a: 0x97b0_c626_d45c_fbaa,
        probs_fnv1a: 0xd47b_1ec9_9267_ac99,
        cache: CacheStats {
            kv_entries: 0,
            recompute_entries: 35,
            evictions: 96,
            insertions: 48,
            bytes_fp16: 2_240,
        },
        faults: FaultStats {
            words_examined: 8_160,
            bits_flipped: 1_198,
        },
    },
];

/// `words_examined` when a no-fault `GOLDEN_RUNS` row is read through
/// `ProbabilisticFaults` at rate 0, per policy.  Captured while `NoFaults`
/// still read keys and values in place; the zero-rate injector, which stages
/// every read, reproduced each row's tokens, probabilities and cache stats
/// bit for bit.  Re-captured when rows of the current pass came to be read
/// clean, which no pass counts: 67 584 → 39 168 (full, quarot-kv4), 40 704
/// → 16 896 (streaming-llm), 45 312 → 16 896 (h2o), 27 552 → 13 344 (aerp).
const ZERO_RATE_WORDS: [(CachePolicy, u64); 5] = [
    (CachePolicy::Full, 39_168),
    (CachePolicy::StreamingLlm, 16_896),
    (CachePolicy::H2o, 16_896),
    (CachePolicy::QuaRotInt4, 39_168),
    (CachePolicy::Aerp, 13_344),
];

/// Runs every `GOLDEN_RUNS` row with the given `faulted` flag and asserts
/// that its token stream, probability bits, final cache stats and fault
/// counters equal the pinned reference constants.  A no-fault row must also
/// come out of a zero-rate `ProbabilisticFaults`, with no bit flipped and
/// its `ZERO_RATE_WORDS` examined.
fn assert_golden_rows(faulted: bool) {
    for row in GOLDEN_RUNS.iter().filter(|row| row.faulted == faulted) {
        let (model, config, p) = if row.faulted {
            (small_model(33), GenerationConfig::greedy(8), prompt(16, 3))
        } else {
            (small_model(21), GenerationConfig::greedy(12), prompt(20, 2))
        };
        let run = |faults: &mut dyn FaultInjector| {
            let mut cache = row.policy.build(budget(), model.dims().heads);
            let output = run_with(&model, &p, config, None, cache.as_mut(), faults);
            let tokens = fnv1a(output.generated.iter().map(|&t| t as u32));
            let probs = fnv1a(output.step_probs.iter().flatten().map(|p| p.to_bits()));
            (tokens, probs, cache.stats(), faults.stats())
        };
        let observed = if row.faulted {
            run(&mut ProbabilisticFaults::new(
                BitFlipRates::uniform(0.01),
                17,
            ))
        } else {
            run(&mut NoFaults)
        };
        let expected = (row.tokens_fnv1a, row.probs_fnv1a, row.cache, row.faults);
        assert_eq!(
            observed,
            expected,
            "policy {} faulted {}: tokens {:#018x}, probabilities {:#018x}",
            row.policy.name(),
            row.faulted,
            observed.0,
            observed.1
        );
        if !row.faulted {
            let &(_, words_examined) = ZERO_RATE_WORDS
                .iter()
                .find(|(policy, _)| *policy == row.policy)
                .expect("every policy has a zero-rate row");
            let staged = run(&mut ProbabilisticFaults::new(
                BitFlipRates::uniform(0.0),
                17,
            ));
            let none_flipped = FaultStats {
                words_examined,
                bits_flipped: 0,
            };
            assert_eq!(
                staged,
                (expected.0, expected.1, expected.2, none_flipped),
                "policy {} at rate 0",
                row.policy.name()
            );
        }
    }
}

/// Acceptance criterion 2, without faults: the five `faulted = false` rows.
#[test]
fn hot_path_streams_match_reference_for_all_policies() {
    assert_golden_rows(false);
}

/// Acceptance criterion 2, under uniform 1 % bit flips: the five
/// `faulted = true` rows.
#[test]
fn hot_path_streams_match_reference_under_faults() {
    assert_golden_rows(true);
}

/// Acceptance criterion 3 (stats regression): after a decode with heavy
/// eviction churn, the reported FP16 footprint equals the live-entry arena
/// footprint — not the peak capacity the buffers grew to, and with AERP's
/// recompute payloads counted once per layer.
#[test]
fn bytes_fp16_reports_live_arena_footprint_after_decode() {
    let model = small_model(11);
    let dims = *model.dims();
    let head_dim = dims.channels / dims.heads;
    let config = GenerationConfig::greedy(24);
    let p = prompt(32, 4);

    for policy in [CachePolicy::StreamingLlm, CachePolicy::H2o] {
        let mut cache = policy.build(budget(), dims.heads);
        let mut faults = NoFaults;
        run_with(&model, &p, config, None, cache.as_mut(), &mut faults);
        let stats = cache.stats();
        assert!(stats.evictions > 0, "{}", policy.name());
        assert_eq!(
            stats.bytes_fp16,
            stats.kv_entries * 2 * head_dim * 2,
            "policy {} must report stride × live entries",
            policy.name()
        );
    }

    // AERP: KV-format entries cost 2 vectors × head_dim per retaining head;
    // recompute-format tokens cost one channels-wide vector per *layer*.
    let mut cache = CachePolicy::Aerp.build(budget(), dims.heads);
    let mut faults = NoFaults;
    run_with(&model, &p, config, None, cache.as_mut(), &mut faults);
    let stats = cache.stats();
    assert!(stats.evictions > 0);
    assert_eq!(
        stats.bytes_fp16,
        stats.kv_entries * 2 * head_dim * 2 + stats.recompute_entries * dims.channels * 2,
        "AERP footprint must be per-head KV plus once-per-layer recompute"
    );
}

/// Criterion 4: without faults, AERP and H2O differ only in what they store.
/// AERP recomputes every retained key from its stored row and rotates it by
/// that row's angle table at each read; H2O stores the key its token's
/// forward rotated by the position's table at insert.  So equal streams, to
/// the last probability bit, check the per-row table against the
/// per-position one at every position a head keeps.  Checked for 1, 4 and 8
/// heads, budgets below and above the prompt length, and under `NoFaults`
/// and a zero-rate `ProbabilisticFaults` (which stages every read); only
/// `CacheStats` and the words examined, both of the stored format, may
/// differ.
#[test]
fn aerp_without_faults_serves_what_h2o_serves() {
    for heads in [1usize, 4, 8] {
        let config = ModelConfig::for_kind(ModelKind::Llama2_7b).with_surrogate(SurrogateDims {
            layers: 2,
            heads,
            channels: 64,
            ffn_dim: 96,
            vocab: 96,
        });
        for seed in [3u64, 19, 40] {
            let model = SurrogateModel::new(config.clone(), seed);
            for (budget, prompt_len) in [(8, 20), (12, 20), (40, 20)] {
                let budget = CacheBudget::new(budget)
                    .with_recent_window(4)
                    .with_sink_tokens(2);
                let p = prompt(prompt_len, seed as usize);
                let serve = |policy: CachePolicy, faults: &mut dyn FaultInjector| {
                    let mut cache = policy.build(budget, heads);
                    let output = run_with(
                        &model,
                        &p,
                        GenerationConfig::greedy(16),
                        None,
                        cache.as_mut(),
                        faults,
                    );
                    let probs: Vec<Vec<u32>> = output
                        .step_probs
                        .iter()
                        .map(|step| step.iter().map(|p| p.to_bits()).collect())
                        .collect();
                    (output.generated, probs)
                };
                let case = format!("{heads} heads, seed {seed}, budget {}", budget.max_tokens);
                assert_eq!(
                    serve(CachePolicy::Aerp, &mut NoFaults),
                    serve(CachePolicy::H2o, &mut NoFaults),
                    "{case}"
                );
                let mut aerp_faults = ProbabilisticFaults::new(BitFlipRates::uniform(0.0), seed);
                let mut h2o_faults = ProbabilisticFaults::new(BitFlipRates::uniform(0.0), seed);
                assert_eq!(
                    serve(CachePolicy::Aerp, &mut aerp_faults),
                    serve(CachePolicy::H2o, &mut h2o_faults),
                    "{case} at rate 0"
                );
                assert_eq!(aerp_faults.stats().bits_flipped, 0, "{case}");
                assert_eq!(h2o_faults.stats().bits_flipped, 0, "{case}");
            }
        }
    }
}

/// The heap `run` peaks at and keeps, above the heap before it.
fn heap_of(run: impl FnOnce()) -> (isize, isize) {
    let start = net_heap_bytes();
    reset_peak_heap();
    run();
    (peak_heap_bytes() - start, net_heap_bytes() - start)
}

/// A publication knows its prompt length and the model's dims before it
/// records, so its log's pools are reserved at their final sizes instead of
/// growing by doubling: what a 48-token publication peaks at beyond a cold
/// pre-fill of the same prompt (whose cache the publication
/// builds and drops too) is within 10 % of what its published
/// segment keeps.
#[test]
fn a_publication_peaks_near_what_its_segment_keeps() {
    let engine = KelleEngine::builder()
        .prefix_sharing(PrefixSharingConfig::enabled())
        .seed(7)
        .build();
    let tokens = prompt(48, 5);
    let (cold, _) = heap_of(|| {
        engine.open_session().prefill(&tokens);
    });
    let (peak, kept) = heap_of(|| assert!(engine.publish_prefix(&tokens)));
    assert!(
        (peak - cold) as f64 <= 1.1 * kept as f64,
        "a publication peaked {} B above a cold pre-fill for a segment that keeps {kept} B",
        peak - cold
    );
}
