//! Continuous batching: serve several concurrent requests through the
//! round-robin scheduler, streaming tokens as they are produced, and compare
//! the aggregate against sequential serving.
//!
//! Run with `cargo run --example continuous_batch`.

use kelle::{CachePolicy, KelleEngine, ServeOptions, ServeRequest};

fn main() {
    let engine = KelleEngine::builder().batch(1).build();

    // Four tenants with different prompts, decode budgets and policies.
    let requests = vec![
        ServeRequest::builder(vec![3, 1, 4, 1, 5, 9])
            .decode_len(6)
            .build(),
        ServeRequest::builder(vec![2, 7, 1, 8])
            .decode_len(10)
            .policy(CachePolicy::Full)
            .build(),
        ServeRequest::builder(vec![6, 6, 6])
            .decode_len(4)
            .policy(CachePolicy::StreamingLlm)
            .build(),
        ServeRequest::builder(vec![1, 61, 80, 33, 98])
            .decode_len(8)
            .seed(1234)
            .build(),
    ];

    println!("streaming tokens (request:token), scheduler step by step:");
    let mut line = String::new();
    let mut sink = |request: usize, token: usize| {
        line.push_str(&format!("{request}:{token} "));
    };
    let batch = engine
        .serve(requests, ServeOptions::new().streaming(&mut sink))
        .expect("no chaos configured, no worker can be lost");
    println!("  {line}");

    println!("\nper-request outcomes:");
    for (i, outcome) in batch.outcomes.iter().enumerate() {
        println!(
            "  request {}: {} tokens, {} evictions, {:6.2} s, {:7.1} J",
            i,
            outcome.generated.len(),
            outcome.cache.evictions,
            outcome.hardware.total_latency_s(),
            outcome.hardware.total_energy_j()
        );
    }
    println!(
        "\naggregate: {} requests, {} tokens, {:.1} J (equals the sum of sequential serves)",
        batch.stats.requests, batch.stats.tokens_generated, batch.stats.hardware_energy_j
    );
}
