//! Memory soak through the front end: a long-lived engine that opens a
//! `ServingFront`, serves a closed loop of requests, drains and drops the
//! front — round after round, as the `prefill_shared` and `front_chat`
//! benchmark workloads do — must hold exactly as much heap after round 50 as
//! after round 10.
//!
//! It does: live bytes are flat from the first round on (the per-round
//! worker pool, scheduler, tier manager, streams, outcome and prefix-hit
//! sessions are all returned).  The resident-set growth a long `kbench` run
//! of those workloads shows is therefore allocator fragmentation plus the
//! harness's own retained rounds, not memory the crates hold.
//!
//! The ledger is process-wide (worker threads allocate what the coordinator
//! frees and the reverse), so this suite is a test binary of its own with a
//! single test: nothing else may allocate while it runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use kelle::edram::TierBudgets;
use kelle::front::{FrontConfig, StreamPoll, TokenStream};
use kelle::{KelleEngine, PrefixSharingConfig, SchedulerConfig, ServeRequest, SloSpec, TierConfig};

/// Net live heap bytes of the whole process (allocations minus frees).
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// A `System`-backed allocator that keeps the process-wide ledger.
struct CountingAllocator;

// SAFETY: defers all allocation to `System`; the bookkeeping is one relaxed
// atomic add (a statistic, it publishes no other data).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const CLIENTS: usize = 2;
const PER_CLIENT: usize = 2;
const PROMPT_LEN: usize = 12;
const DECODE_LEN: usize = 3;

fn system_prompt() -> Vec<usize> {
    (0..8).map(|i| (i * 7 + 5) % 512).collect()
}

/// Threads of this process in the kernel's table (0 where there is no
/// `/proc`).  `thread::scope` returns once a worker's closure is done, which
/// is before the thread's own handle is freed by its thread-local
/// destructors; the thread leaves this table only after those ran.
fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count)
}

/// Request `id` of a round: every third one rides the published system
/// prompt (prefix hit), the others are unique (cold prefill).
fn request(id: usize) -> ServeRequest {
    let mut prompt = if id.is_multiple_of(3) {
        system_prompt()
    } else {
        Vec::new()
    };
    prompt.extend((prompt.len()..PROMPT_LEN).map(|i| (i * 31 + id * 13 + 3) % 512));
    ServeRequest::new(prompt, DECODE_LEN)
}

/// Every optional subsystem the benchmark's front workloads switch on: SLO
/// sampling, tiering with eDRAM at a quarter of the clients' demand (DRAM
/// holds the rest), bounded streams.
fn front_config(engine: &KelleEngine) -> FrontConfig {
    let edram = engine.kv_footprint_bytes(PROMPT_LEN + DECODE_LEN) * CLIENTS as u64 / 4;
    let budgets = TierBudgets::with_edram(edram).with_dram(4 * edram);
    let scheduler = SchedulerConfig::default()
        .with_slo(SloSpec::new(25, 1.5))
        .with_tiering(TierConfig::with_edram_budget(edram).with_budgets(budgets));
    FrontConfig::new()
        .with_scheduler(scheduler)
        .with_stream_capacity(8)
}

/// One closed-loop round: submit → pump → drain every stream → drop the
/// front and its outcome.  Returns the tokens served.
fn round(engine: &KelleEngine) -> usize {
    let (tokens, outcome) = engine.front(front_config(engine), |front| {
        let mut live: Vec<Option<TokenStream>> = (0..CLIENTS).map(|_| None).collect();
        let mut sent = [0usize; CLIENTS];
        let mut tokens = 0;
        loop {
            for client in 0..CLIENTS {
                if live[client].is_none() && sent[client] < PER_CLIENT {
                    let id = sent[client] * CLIENTS + client;
                    sent[client] += 1;
                    live[client] = Some(front.submit(request(id)).expect("unbounded queue"));
                }
            }
            if live.iter().all(Option::is_none) {
                return tokens;
            }
            front.pump();
            for slot in &mut live {
                while let Some(stream) = slot {
                    match stream.try_next() {
                        StreamPoll::Token(_) => tokens += 1,
                        StreamPoll::Pending => break,
                        StreamPoll::Finished { shed } => {
                            assert_eq!(shed, None);
                            *slot = None;
                        }
                    }
                }
            }
        }
    });
    assert_eq!(outcome.outcomes.len(), CLIENTS * PER_CLIENT);
    assert!(outcome.prefix.hit_requests > 0 && outcome.tiering.demotions > 0);
    tokens
}

#[test]
fn front_rounds_hold_no_heap_after_they_end() {
    let engine = KelleEngine::builder()
        .prefix_sharing(PrefixSharingConfig::enabled())
        .workers(2)
        .build();
    assert!(engine.publish_prefix(&system_prompt()));

    let threads = os_threads();
    let mut live_after = [0isize; 50];
    for live in &mut live_after {
        assert_eq!(round(&engine), CLIENTS * PER_CLIENT * DECODE_LEN);
        while os_threads() > threads {
            std::thread::yield_now();
        }
        *live = LIVE.load(Ordering::Relaxed);
    }
    assert_eq!(
        live_after[9], live_after[49],
        "live heap after each round: {live_after:?}"
    );
}
