//! Async serving front-end: the long-lived fleet submitted through
//! `kelle::front`'s non-blocking submit/poll API, with a bounded admission
//! queue, per-stream backpressure, a mid-stream cancellation and a graceful
//! drain, with every session pinned to its shard of the worker pool.
//!
//! Run with `cargo run --release --example async_serving`.

use kelle::front::{FrontConfig, StreamPoll, SubmitError, TokenStream};
use kelle::workloads::FrontScenario;
use kelle::{KelleEngine, PrefixSharingConfig, ServeRequest, ShedReason};

fn main() {
    let scenario = FrontScenario::long_lived_fleet();
    let fleet = &scenario.fleet;
    println!(
        "{} long-lived sessions x ({}-token system prompt + {}-token turn), {} decode steps",
        fleet.sessions, fleet.system_tokens, fleet.user_tokens, fleet.decode_len
    );

    let engine = KelleEngine::builder()
        .prefix_sharing(PrefixSharingConfig::enabled())
        .workers(2)
        .build();
    assert!(engine.publish_prefix(&fleet.system_prompt()));

    let config = FrontConfig::default()
        .with_queue_capacity(8)
        .with_stream_capacity(4);
    let (streams, outcome) = engine.front(config, |front| {
        // Non-blocking submission with typed backpressure.
        let mut handles: Vec<TokenStream> = Vec::new();
        for prompt in fleet.prompts() {
            let request = ServeRequest::new(prompt, fleet.decode_len);
            match front.submit(request.clone()) {
                Ok(stream) => handles.push(stream),
                Err(SubmitError::QueueFull { waiting }) => {
                    println!("  queue full ({waiting} waiting) - blocking submit");
                    handles.push(front.submit_blocking(request).expect("slot frees"));
                }
                Err(SubmitError::Draining) => unreachable!("not draining yet"),
            }
        }
        // Cancel one session mid-stream; its partial output survives.
        front.pump();
        front.pump();
        let victim = handles.last().expect("fleet is non-empty").request();
        assert!(front.cancel(victim));
        // Poll every stream to the end (recv pumps ticks cooperatively).
        let streams: Vec<Vec<usize>> = handles
            .iter()
            .map(|stream| {
                let mut tokens = Vec::new();
                loop {
                    match front.recv(stream) {
                        StreamPoll::Token(token) => tokens.push(token),
                        StreamPoll::Finished { shed } => {
                            if stream.request() == victim {
                                assert_eq!(shed, Some(ShedReason::Cancelled));
                            } else {
                                assert_eq!(shed, None);
                            }
                            break;
                        }
                        StreamPoll::Pending => unreachable!("recv pumps until terminal"),
                    }
                }
                tokens
            })
            .collect();
        // Graceful shutdown: terminal, releases every byte.
        front.drain();
        assert_eq!(front.scheduler().ledger().live_bytes(), 0);
        streams
    });

    println!(
        "{} streams; {} queue crossings over {} ticks ({:.2}/tick), {} tokens",
        streams.len(),
        outcome.parallel.queue_crossings,
        outcome.parallel.ticks,
        outcome.parallel.crossings_per_tick(),
        outcome.stats.tokens_generated,
    );
    println!("(sessions stay pinned to their shards; only per-tick step results cross threads)");
}
