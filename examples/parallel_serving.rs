//! Threaded serving front-end: the shared-prompt fleet decoded through the
//! `kelle::parallel` worker pool at several worker counts.  Per-session
//! prefill/decode compute fans out across workers while admission, the
//! capacity ledger and the prefix store stay on the coordinating thread —
//! so the streams, fault statistics and batch metrics printed here are
//! asserted bit-identical to single-threaded serving at every worker count.
//!
//! Run with `cargo run --release --example parallel_serving`.

use kelle::workloads::ParallelScenario;
use kelle::{KelleEngine, PrefixSharingConfig, ServeOptions, ServeRequest};
use std::time::Instant;

fn main() {
    let scenario = ParallelScenario::edge_fleet();
    let fleet = &scenario.fleet;
    println!(
        "{} sessions x ({}-token system prompt + {}-token user turn), {} decode steps",
        fleet.sessions, fleet.system_tokens, fleet.user_tokens, fleet.decode_len
    );

    let requests: Vec<ServeRequest> = fleet
        .prompts()
        .into_iter()
        .map(|prompt| ServeRequest::new(prompt, fleet.decode_len))
        .collect();

    // Single-threaded reference.
    let engine = KelleEngine::builder()
        .prefix_sharing(PrefixSharingConfig::enabled())
        .build();
    assert!(engine.publish_prefix(&fleet.system_prompt()));
    let start = Instant::now();
    let reference = engine
        .serve(requests.clone(), ServeOptions::new())
        .expect("no chaos configured, no worker can be lost");
    println!(
        "\nsequential:          {:>8.2}s, {} tokens",
        start.elapsed().as_secs_f64(),
        reference.stats.tokens_generated
    );

    for &workers in &scenario.worker_counts {
        let engine = KelleEngine::builder()
            .prefix_sharing(PrefixSharingConfig::enabled())
            .workers(workers)
            .build();
        assert!(engine.publish_prefix(&fleet.system_prompt()));
        let start = Instant::now();
        let outcome = engine
            .serve(requests.clone(), ServeOptions::new().parallel())
            .expect("no chaos configured, no worker can be lost");
        let elapsed = start.elapsed().as_secs_f64();

        // The whole point: worker counts only move wall-clock time.
        for (a, b) in reference.outcomes.iter().zip(outcome.outcomes.iter()) {
            assert_eq!(a.generated, b.generated, "streams must be bit-identical");
            assert_eq!(a.faults, b.faults, "fault statistics must match");
        }
        assert_eq!(reference.stats, outcome.stats);
        assert_eq!(reference.contention, outcome.contention);
        assert_eq!(reference.prefix, outcome.prefix);
        println!(
            "{workers} worker(s):         {elapsed:>8.2}s, streams/metrics identical to sequential"
        );
    }
    println!("\n(speedup needs a multi-core host; determinism holds everywhere)");
}
