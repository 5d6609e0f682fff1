//! Cross-session prefix KV sharing: N chatbot sessions front their prompts
//! with the same system prompt, which is published once as a shared prefix
//! segment — every session replays it into its own cache (zero model
//! compute, ledger bytes charged once) and computes only its own user
//! suffix.  Token streams are asserted byte-identical to a sharing-oblivious
//! engine.
//!
//! Run with `cargo run --example shared_prompt`.

use kelle::workloads::SharedPromptScenario;
use kelle::{CachePolicy, KelleEngine, PrefixSharingConfig, ServeOptions, ServeRequest};

fn main() {
    let scenario = SharedPromptScenario::new(8, 96, 12).with_decode_len(8);
    let system = scenario.system_prompt();
    let requests: Vec<ServeRequest> = scenario
        .prompts()
        .into_iter()
        .map(|prompt| ServeRequest::new(prompt, scenario.decode_len))
        .collect();
    println!(
        "{} sessions, {}-token shared system prompt + {}-token user turns",
        scenario.sessions, scenario.system_tokens, scenario.user_tokens
    );

    let cold_engine = KelleEngine::builder().policy(CachePolicy::Full).build();
    let cold = cold_engine
        .serve(requests.clone(), ServeOptions::new())
        .expect("no chaos configured, no worker can be lost");
    let cold_prefilled: usize = cold.outcomes.iter().map(|o| o.prefilled_tokens).sum();

    // Sharing: publish once, then every session hits.
    let engine = KelleEngine::builder()
        .policy(CachePolicy::Full)
        .prefix_sharing(PrefixSharingConfig::enabled())
        .build();
    assert!(engine.publish_prefix(&system));
    let batch = engine
        .serve(requests, ServeOptions::new())
        .expect("no chaos configured, no worker can be lost");
    let prefilled: usize = batch.outcomes.iter().map(|o| o.prefilled_tokens).sum();

    println!("\nwithout sharing: {cold_prefilled} prompt tokens computed");
    println!(
        "with sharing:    {} computed by sessions + {} once at publication",
        prefilled,
        system.len()
    );
    println!(
        "prefill skipped: {} tokens across {} hits",
        batch.prefix.hit_tokens, batch.prefix.hit_requests
    );
    println!(
        "ledger:          prefix charged once ({:.1} MB resident), {:.1} MB deduplicated",
        batch.prefix.shared_bytes as f64 / (1024.0 * 1024.0),
        batch.prefix.deduplicated_bytes as f64 / (1024.0 * 1024.0),
    );
    println!(
        "peak residency:  {:.1} MB vs {:.1} MB without sharing",
        batch.contention.peak_residency_bytes as f64 / (1024.0 * 1024.0),
        cold.contention.peak_residency_bytes as f64 / (1024.0 * 1024.0),
    );
    let store = engine.prefix_stats();
    println!(
        "store:           {} published boundary ({} tokens), {} hits / {} misses",
        store.published, store.published_tokens, store.hits, store.misses
    );

    // The ledger's deduplication: every hit attached the prefix, but only
    // the first attachment of a residency period charged it.
    let attached = batch.prefix.shared_bytes + batch.prefix.deduplicated_bytes;
    println!(
        "deduplication:   {} attachments, {:.1}x fewer prefix bytes charged",
        batch.prefix.hit_requests,
        attached as f64 / batch.prefix.shared_bytes.max(1) as f64
    );

    // The equivalence guarantee: sharing never changes a token.
    for (a, b) in cold.outcomes.iter().zip(batch.outcomes.iter()) {
        assert_eq!(a.generated, b.generated);
    }
    println!("\ntoken streams identical to the sharing-oblivious run ✓");
}
