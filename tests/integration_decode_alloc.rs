//! Decode-hot-path acceptance tests for the arena storage rewrite:
//!
//! 1. **Zero steady-state heap growth** — once the scratch buffers and policy
//!    arenas have warmed up, a decode step must not grow the heap at all,
//!    with `NoFaults` or with 2DRP retention faults (measured with a counting
//!    global allocator, per thread so parallel tests cannot pollute the
//!    ledger).
//! 2. **Byte-identical token streams** — the borrowed `EntryRef` hot path
//!    must generate exactly the tokens *and* probability bits of the
//!    historical materialize-then-compute implementation
//!    (`run_with_via_entries`, the pre-arena algorithm preserved verbatim),
//!    for every cache policy, with and without active fault injection.
//! 3. **Arena-footprint stats** — `CacheStats::bytes_fp16` tracks live
//!    entries (stride × count), not retired buffer capacity, across a real
//!    decode with heavy eviction.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use kelle::cache::{CacheBudget, CachePolicy};
use kelle::edram::{RefreshPolicy, RetentionModel};
use kelle::fault_injector_for_policy;
use kelle::model::fault::{BitFlipRates, FaultInjector, NoFaults, ProbabilisticFaults};
use kelle::model::generation::{
    decode_step, prefill, run_with, run_with_via_entries, GenerationConfig, GenerationState,
};
use kelle::model::{ModelConfig, ModelKind, SurrogateDims, SurrogateModel};

thread_local! {
    /// Net heap bytes held by the current thread (allocations minus frees).
    static NET_HEAP: Cell<isize> = const { Cell::new(0) };
}

/// A `System`-backed allocator that keeps a per-thread net-bytes ledger.
struct CountingAllocator;

// SAFETY: defers all allocation to `System`; the bookkeeping only touches a
// per-thread `Cell` via `try_with` (no allocation, no panics during thread
// teardown).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let _ = NET_HEAP.try_with(|c| c.set(c.get() + layout.size() as isize));
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        let _ = NET_HEAP.try_with(|c| c.set(c.get() - layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            let _ =
                NET_HEAP.try_with(|c| c.set(c.get() + new_size as isize - layout.size() as isize));
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn net_heap_bytes() -> isize {
    NET_HEAP.with(Cell::get)
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
/// accumulate.
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
        let start = net_heap_bytes();
        for step in 0..32 {
            let out = decode_step(&model, &mut state, None, cache.as_mut(), faults);
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
/// retention faults at the default rates.  Fault lanes are created on a
/// `(layer, head)`'s first read and must not allocate afterwards.
#[test]
fn decode_steps_have_zero_steady_state_heap_growth_under_2drp_faults() {
    let mut faults = fault_injector_for_policy(
        &RefreshPolicy::two_dimensional_default(),
        &RetentionModel::default(),
        17,
    );
    assert_zero_steady_state_heap_growth(&mut faults);
    assert!(faults.stats().bits_flipped > 0);
}

/// Acceptance criterion 2: for every policy the borrowed-view hot path and
/// the pre-arena reference implementation produce byte-identical token
/// streams and probability distributions.
#[test]
fn hot_path_streams_match_reference_for_all_policies() {
    let model = small_model(21);
    let heads = model.dims().heads;
    let config = GenerationConfig::greedy(12);
    let p = prompt(20, 2);
    for policy in CachePolicy::all() {
        let mut cache_fast = policy.build(budget(), heads);
        let mut cache_ref = policy.build(budget(), heads);
        let mut faults_fast = NoFaults;
        let mut faults_ref = NoFaults;
        let fast = run_with(
            &model,
            &p,
            config,
            None,
            cache_fast.as_mut(),
            &mut faults_fast,
        );
        let reference = run_with_via_entries(
            &model,
            &p,
            config,
            None,
            cache_ref.as_mut(),
            &mut faults_ref,
        );
        assert_eq!(
            fast.generated,
            reference.generated,
            "token stream diverged for policy {}",
            policy.name()
        );
        for (step, (a, b)) in fast
            .step_probs
            .iter()
            .zip(reference.step_probs.iter())
            .enumerate()
        {
            let a_bits: Vec<u32> = a.iter().map(|f| f.to_bits()).collect();
            let b_bits: Vec<u32> = b.iter().map(|f| f.to_bits()).collect();
            assert_eq!(
                a_bits,
                b_bits,
                "probability bits diverged at step {step} for policy {}",
                policy.name()
            );
        }
        // The cache ends in the same state either way.
        assert_eq!(
            cache_fast.stats(),
            cache_ref.stats(),
            "cache stats diverged for policy {}",
            policy.name()
        );
    }
}

/// The corrupted-read staging path consumes fault-injector randomness in the
/// same order as the reference implementation, so streams stay byte-identical
/// under active fault injection too.
#[test]
fn hot_path_streams_match_reference_under_faults() {
    let model = small_model(33);
    let heads = model.dims().heads;
    let config = GenerationConfig::greedy(8);
    let p = prompt(16, 3);
    for policy in CachePolicy::all() {
        let mut cache_fast = policy.build(budget(), heads);
        let mut cache_ref = policy.build(budget(), heads);
        let mut faults_fast = ProbabilisticFaults::new(BitFlipRates::uniform(0.01), 17);
        let mut faults_ref = ProbabilisticFaults::new(BitFlipRates::uniform(0.01), 17);
        let fast = run_with(
            &model,
            &p,
            config,
            None,
            cache_fast.as_mut(),
            &mut faults_fast,
        );
        let reference = run_with_via_entries(
            &model,
            &p,
            config,
            None,
            cache_ref.as_mut(),
            &mut faults_ref,
        );
        assert_eq!(
            fast.generated,
            reference.generated,
            "faulted token stream diverged for policy {}",
            policy.name()
        );
        assert_eq!(
            faults_fast.stats(),
            faults_ref.stats(),
            "fault RNG consumption diverged for policy {}",
            policy.name()
        );
    }
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
